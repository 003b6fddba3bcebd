"""Reference side of the contract-sanitizer fixtures (CON001/CON002)."""


class Server:
    def arrival(self, now):
        delay = self.rng.exponential(self.scale)
        key = self.sampler.sample(self.rng)
        if self.rng.random() < self.write_fraction:
            self.writes += 1
        self.schedule(now + delay, key)


def score(resp, expected, q_hat, exponent):
    return resp - expected + q_hat**exponent * expected
