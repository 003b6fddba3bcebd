"""Faithful mirror: same draw order, same formula in another statement shape."""


class FlowServer:
    def arrival(self, now):
        delay = self.arrival_rng.exponential(self.scale)
        key = self.sampler.sample(self.arrival_rng)
        self.schedule(now + delay, key)


def score(resp, expected, q_hat, exponent):
    value = resp - expected + q_hat**exponent * expected
    return value
