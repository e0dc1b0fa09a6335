"""Scalar Box-Muller reference for ``ks2.prng.Stream.normals``.

One normal per call, two uniforms per pair and the sine cached for the next
call: the definition the vectorised ``Stream.normals`` must match bit for bit.
"""
import math

from ks2.prng import Stream


class ReferenceStream(Stream):
    def normal(self) -> float:
        """Standard normal via Box-Muller (pairs cached)."""
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        u1 = self.uniform_open()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int) -> list[float]:
        return [self.normal() for _ in range(n)]
