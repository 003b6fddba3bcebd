"""Reordered draws carrying an explicit suppression on the drift line."""


class FlowServer:
    def arrival(self, now):
        key = self.sampler.sample(self.arrival_rng)  # repro: noqa(CON002) - deliberate fixture drift
        delay = self.arrival_rng.exponential(self.scale)
        self.schedule(now + delay, key)
