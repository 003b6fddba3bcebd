"""Drifted mirror: the anchored formula no longer matches (CON001)."""


def score(resp, expected, q_hat, exponent):
    value = resp - expected + q_hat**exponent / expected  # drifted formula
    return value
