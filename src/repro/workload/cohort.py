"""Client cohorts: many identical leaf clients as one weighted process.

At web scale most readers are *statistically identical*: same cache, same
session guarantees, same think-time and page-popularity distributions.
Simulating each one as its own process (address space, session, event
stream) is what caps populations in the tens.  A
:class:`CohortReaderWorkload` collapses ``weight`` such clients into one
process that issues **batched reads** -- a single protocol request
stamped with the cohort weight, which the store's read path, the trace
recorder and every metric then count as ``weight`` client reads (see
``weight=`` on :meth:`repro.web.webobject.Browser.read_page` and
``ReadEvent.weight``).

The collapse is exact as long as every member would have made the same
policy-visible decisions: they share one admission outcome (same store,
same session requirement), one replica choice (same binding) and one
served version.  The moment a decision can *diverge* -- a fault makes
the shared request fail, where real clients would individually retry,
time out, or hit different replicas -- the cohort **expands**: the
failed round is charged to every member (they all saw the same fault at
the same instant), and from the next round on the cohort issues
per-member weight-1 reads through individually bound browsers (the
``expand`` callback, typically
:meth:`repro.workload.scenarios.Deployment.expand_cohort`).  Without an
expand callback the cohort keeps batching and keeps charging errors at
full weight -- a documented coarsening, acceptable for fault-free
benchmarks.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence

from repro.replication.client import ReplicaError
from repro.sim.process import Delay, WaitFor
from repro.sim.rng import SeededRng
from repro.web.webobject import Browser
from repro.workload.generator import ReaderWorkload


class CohortReaderWorkload(ReaderWorkload):
    """``weight`` identical browsing clients driven as one process.

    Parameters
    ----------
    browser:
        The cohort's shared browser; its reads carry ``weight``.
    pages / skew:
        Page population and Zipf skew, as for
        :class:`~repro.workload.generator.ReaderWorkload`.
    rng:
        This cohort's random stream (think times; page picks use a
        ``"pages"`` fork, mirroring the per-client reader).
    weight:
        How many leaf clients this process stands in for.
    mean_think / operations:
        Think time and rounds *per member*; each round issues one batched
        read representing one read by every member.
    expand:
        Zero-argument callable returning the per-member browsers, bound
        lazily when a policy decision diverges.  ``None`` disables
        expansion.
    """

    __slots__ = ("weight", "expand", "members")

    def __init__(
        self,
        browser: Browser,
        pages: Sequence[str],
        rng: SeededRng,
        weight: int,
        mean_think: float = 1.0,
        operations: int = 50,
        skew: float = 1.0,
        expand: Optional[Callable[[], List[Browser]]] = None,
    ) -> None:
        if weight < 1:
            raise ValueError(f"cohort weight must be >= 1, got {weight!r}")
        super().__init__(browser, pages, rng, mean_think, operations, skew)
        self.weight = weight
        self.expand = expand
        #: Individually bound member browsers once expanded, else ``None``.
        self.members: Optional[List[Browser]] = None

    @property
    def expanded(self) -> bool:
        """Whether a diverging decision has split this cohort."""
        return self.members is not None

    def _expand(self) -> None:
        if self.members is not None or self.expand is None:
            return
        self.members = list(self.expand())

    def run(self) -> Generator:
        """Generator body for :class:`~repro.sim.process.Process`.

        Randomness is pre-drawn in epochs exactly like the per-client
        reader; each round is one batched (or, after expansion,
        per-member) read.
        """
        remaining = self.operations
        while remaining > 0:
            remaining, draws = self._draw_epoch(remaining)
            while draws:
                yield Delay(draws.pop())
                page = draws.pop()
                if self.members is None:
                    try:
                        yield WaitFor(
                            self.browser.read_page(page, weight=self.weight)
                        )
                    except ReplicaError:
                        self.stats.not_found += self.weight
                    except Exception:
                        # A fault hit the shared request: every member saw
                        # it (one wire request, one failure instant), so
                        # the round is charged at full weight -- then the
                        # cohort expands, because retries/timeouts from
                        # here on would diverge per client.
                        self.stats.errors += self.weight
                        self._expand()
                    self.stats.operations += self.weight
                    continue
                for member in self.members:
                    try:
                        yield WaitFor(member.read_page(page))
                    except ReplicaError:
                        self.stats.not_found += 1
                    except Exception:
                        self.stats.errors += 1
                    self.stats.operations += 1
        return self.stats


def cohort_sizes(population: int, cohort_size: int) -> List[int]:
    """Split ``population`` clients into cohort weights of ``cohort_size``.

    The last cohort takes the remainder, so weights always sum to the
    population: ``cohort_sizes(10, 4) == [4, 4, 2]``.
    """
    if population < 0:
        raise ValueError(f"population must be >= 0, got {population!r}")
    if cohort_size < 1:
        raise ValueError(f"cohort size must be >= 1, got {cohort_size!r}")
    full, rest = divmod(population, cohort_size)
    sizes = [cohort_size] * full
    if rest:
        sizes.append(rest)
    return sizes
