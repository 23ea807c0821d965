"""The grouped loops of the fused batch kernels: ``emit_grouped_*`` and
``emit_union_*``.

A fused batch kernel whose innermost clause is a keyed probe reaching
the head runs its plain per-firing loop over short buckets and hands a
call over long ones on (:func:`repro.semantics.codegen._emit_batch`).
The variant that takes it is emitted here.  Most programs never group,
so :mod:`repro.semantics.codegen` imports this module on the first
grouped build only, and a process that never groups never compiles it.
"""

from __future__ import annotations

from repro.semantics.codegen import (
    _DIGIT_BITS,
    _Source,
    _estimate,
    _full_depth,
    _trie_get,
    _tuple_expr,
)


def own_groups(step, relation: str, head_exprs: list[str],
               is_inner: list[bool], cands: list[str]) -> bool:
    """Whether a group's known heads are the probed chain's bucket at
    the group's key.

    They are when the probed relation is the head relation itself, its
    chain is keyed by the head's group (outer) positions in position
    order, and each inner head position reads the probed row's value
    at that position: the bucket at a group's key then holds exactly
    the heads of that group already in the relation.  Nonlinear TC's
    two delta occurrences both have this shape.
    """
    outer = tuple(p for p, inn in enumerate(is_inner) if not inn)
    return (step.relation == relation
            and tuple(step.chain_order[:step.chain_depth]) == outer
            and all(head_exprs[p] == cands[p]
                    for p, inn in enumerate(is_inner) if inn))


def emit_grouped(src: _Source, step, d: int, clauses: list[str],
                 probe: tuple[str, str], cands: list[str],
                 head_exprs: list[str], is_inner: list[bool], relation: str,
                 bitset: bool) -> None:
    """The grouped loop of a fused batch kernel: ``emit_grouped_*``
    (``bitset``) or ``emit_union_*``.

    The innermost clause is an unfiltered keyed probe (``probe`` is its
    bucket expression and key, ``cands`` the names its rows unpack
    into): each distinct key's projection onto the head's inner
    positions (``is_inner``) is built once per call, and each outer row
    unions it into the group of the head's outer positions, as an int
    mask over the call's value ids (bit ``i`` is the ``i``-th key of
    ``ids``) or as a set.  A mask union costs a digit operation per
    ``bits_per_digit`` values and a key's mask a char per value met so
    far, a set union an insert per row, so past ``bits_per_digit``
    times the mean bucket in values the bitset variant returns ``None``
    before emitting, and the call reruns as a union.

    Where :func:`own_groups` holds, an add-only call of the bitset
    variant clears from each group's mask the heads its group already
    has, before decoding, so it builds only new heads.  That mask is
    the call's cached entry for the group's key, or else one built from
    the chain's bucket at that key over the ids already numbered (a
    value without an id is in no group's mask), which leaves the budget
    alone.  Every other call decodes every head and drops the known
    ones.
    """
    probe_expr, cache_key = probe
    target = ", ".join(cands) + ("," if len(cands) == 1 else "")
    inner = [e for e, inn in zip(head_exprs, is_inner) if inn]
    outer = [e for e, inn in zip(head_exprs, is_inner) if not inn]
    # The head, rebuilt from the group key (k*) and an inner value (w*).
    head, ko, wo = [], 0, 0
    for inn in is_inner:
        head.append(f"w{wo}" if inn else f"k{ko}")
        wo, ko = wo + inn, ko + (not inn)

    def one(exprs: list[str]) -> str:
        return exprs[0] if len(exprs) == 1 else _tuple_expr(exprs)

    def unpack(names: list[str]) -> str:
        return names[0] if len(names) == 1 else f"({', '.join(names)})"

    group = [f"k{i}" for i in range(ko)]
    keys = unpack(group)
    values = unpack([f"w{j}" for j in range(wo)])
    if bitset:
        if not _full_depth(step):
            # Else built on first probe: the budget needs its counts.
            src.add(1, f"rel{d}.chain_index({step.chain_order!r})")
        _estimate(src, step, d)
        src.add(1, f"budget = {_DIGIT_BITS} * len(rel{d}) // (n or 1)\n"
                   "ids = {}\nid_of = ids.setdefault")
    src.add(1, ("seen = {}\nsget = seen.get" if outer
                else f"seen = {'0' if bitset else 'set()'}")
            + "\ncache = {}\ncget = cache.get")
    depth = 1
    for clause in clauses[:-1]:
        src.add(depth, clause + ":")
        depth += 1
    if not bitset:
        src.add(depth, f"""\
proj = cget({cache_key})
if proj is None:
    proj = cache[{cache_key}] = [
        {one(inner)}
        for {target} in {probe_expr}
    ]
if proj:
    fired += len(proj)""")
        src.add(depth + 1, f"""\
s = sget({one(outer)})
if s is None:
    s = seen[{one(outer)}] = set()
s.update(proj)""" if outer else "seen.update(proj)")
        loops = (f"for {keys}, s in seen.items() for {values} in s" if outer
                 else f"for {values} in seen")
        src.add(1, f"""\
if seen:
    flat = {{{_tuple_expr(head)} {loops}}}
    if known:
        flat.difference_update(known)
    out.update(flat)
return fired""")
        return
    union = (f"seen[{one(outer)}] = sget({one(outer)}, 0) | m" if outer
             else "seen |= m")
    # A key's mask as base-2 text, a char per id (bit i at ~i), parsed
    # once: linear in its width; or-ing one-hot ints is quadratic.
    src.add(depth, f"""\
e = cget({cache_key})
if e is None:
    rs = {probe_expr}
    ba = bytearray(b'0') * (len(ids) + len(rs) + 1)
    for {target} in rs:
        ba[~id_of({one(inner)}, len(ids))] = 49
    if len(ids) > budget:
        return None
    e = cache[{cache_key}] = int(ba, 2), len(rs)
m, c = e
if c:
    fired += c
    {union}""")
    decode = "compress(ids, bin({})[:1:-1].encode().translate(_B01))"
    src.add(1, "if seen:")
    own = own_groups(step, relation, head_exprs, is_inner, cands)
    if own:
        bucket = (_trie_get(f"g{d}", group) + " or ()" if _full_depth(step)
                  else f"p{d}({step.chain_order!r}, {step.chain_depth}, "
                       f"{_tuple_expr(group)})")
        src.add(2, f"""\
if known:
    iget = ids.get
    for {keys}, m in seen.items():
        e = cget({one(group)})
        if e is None:
            ba = bytearray(b'0') * (len(ids) + 1)
            for {target} in {bucket}:
                i = iget({one(inner)})
                if i is not None:
                    ba[~i] = 49
            m &= ~int(ba, 2)
        else:
            m &= ~e[0]
        if m:
            out.update([{_tuple_expr(head)} for {values} in {decode.format('m')}])
    return fired""")
    # Each distinct mask is decoded once (groups often share one), and
    # distinct (group, value) pairs are distinct heads: a list.
    if outer:
        src.add(2, f"ws = {{m: list({decode.format('m')}) "
                   f"for m in set(seen.values())}}")
        loops = f"for {keys}, m in seen.items() for {values} in ws[m]"
    else:
        loops = f"for {values} in {decode.format('seen')}"
    src.add(2, f"flat = [{_tuple_expr(head)} {loops}]")
    if not own:  # else ``known`` is empty here
        src.add(2, "if known:\n    flat = [t for t in flat if t not in known]")
    src.add(2, "out.update(flat)")
    src.add(1, "return fired")
