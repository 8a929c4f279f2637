"""Fixture: a config entry still names ``Session._fold_block`` after the
kernel was merged into ``Session._fold`` — ``zero-alloc-kernel`` reports
the entry instead of silently checking nothing."""

import numpy as np


class Session:
    def _fold(self, acc: np.ndarray, sim: np.ndarray) -> np.ndarray:
        np.add(acc, sim, out=acc)
        return acc
