"""Unsupervised sleep/wake scoring of actigraphy epoch counts.

A two-state hidden Markov model with a zero-inflated truncated Gaussian
sleep emission and a Gaussian wake emission is fitted per recording by
Baum-Welch and decoded by Viterbi; short state runs are smoothed away.
An Actiwatch-style threshold scorer is included as a comparator, along
with epoch-level agreement metrics, derived sleep variables, and a
seeded simulator for validation.
"""

__version__ = "0.1.0"
