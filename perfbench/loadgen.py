"""Request generation: Zipf query streams and a closed loop over HTTP."""

from __future__ import annotations

import itertools
import random
from time import perf_counter
from typing import List, Sequence, Tuple

from repro.server.client import ServerClient, ServerClientError

import corpus


def zipf_stream(
    universe: Sequence, n: int, exponent: float, rng: random.Random
) -> List:
    """*n* draws from *universe*; the item at rank r (list order, from 1)
    is drawn with weight 1/r**exponent."""
    weights = itertools.accumulate(
        1.0 / rank ** exponent for rank in range(1, len(universe) + 1)
    )
    return rng.choices(universe, cum_weights=list(weights), k=n)


def closed_loop(
    client: ServerClient, queries: Sequence[Sequence[str]], keep_every: int
) -> Tuple[List[float], int, List[Tuple[list, bytes]]]:
    """Send *queries* one after another on *client*'s keep-alive
    connection; returns (the seconds each request answered 200 took, how
    many did not, (query, body) of every *keep_every*-th answer)."""
    durations: List[float] = []
    failed = 0
    kept: List[Tuple[list, bytes]] = []
    for i, query in enumerate(queries):
        start = perf_counter()
        try:
            response = client.reformulate(list(query), k=corpus.K)
        except ServerClientError:
            failed += 1
            continue
        if response.status != 200:
            failed += 1
            continue
        durations.append(perf_counter() - start)
        if i % keep_every == 0:
            kept.append((list(query), response.body))
    return durations, failed, kept
