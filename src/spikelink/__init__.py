"""Spiking encoder over a noisy binary link with a lightweight edge decoder.

Import from the modules: `spikelink.cli` runs the verbs; `encoder`,
`channel`, `decoder` and `training` hold the model, the link and the
estimator; `events`, `config`, `checkpoint` and `metrics` the data and
files around them.
"""

__version__ = "0.1.0"
