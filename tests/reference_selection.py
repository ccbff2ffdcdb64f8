"""Independent brute-force re-implementations of the selection policies,
written line by line against each policy's published control flow rather
than sharing any code with the package. Used as the oracles for
equivalence testing: ``reference_select`` for the regime-switched
champion scan and ``reference_rswn`` for the rswn baseline.

Semantics mirrored by ``reference_select``:
  - the scan seeds the champion with the first block, then walks the
    queue once in order;
  - a candidate whose head packet is a retransmission always takes the
    championship, and afterwards only later retransmissions can take it;
  - low regime: champion replaced when its Dr/Pkt*(1+P) is <= the
    candidate's (later index wins ties);
  - high regime: champion replaced when its Dr*(1+P)/Sr is >= the
    candidate's; a candidate that fails this comparison falls through to
    the mid comparison instead of being skipped;
  - mid comparison: candidate wins on strictly smaller Sr*Pkt, or on
    equal Sr*Pkt with Dr/Pkt <= the champion's;
  - the literal variant replays the original pseudocode in which the mid
    lines compare but never swap.
"""
from __future__ import annotations

LOW, MID, HIGH = 0, 1, 2


def reference_select(entries, regime, literal_mid=False):
    """entries: list of dicts with keys dr, sr, pkt, p, retx.
    Returns (winner_index, reason_string) or (None, 'none_eligible')."""
    if len(entries) == 0:
        return None, "none_eligible"

    best = 0
    best_is_retx = bool(entries[0]["retx"])
    reason = "retransmission" if best_is_retx else "first_block"

    i = 1
    while i < len(entries):
        cand = entries[i]
        champ = entries[best]
        if cand["retx"]:
            best = i
            best_is_retx = True
            reason = "retransmission"
            i += 1
            continue
        if best_is_retx:
            i += 1
            continue

        if regime == LOW:
            champ_key = champ["dr"] / champ["pkt"] * (1.0 + champ["p"])
            cand_key = cand["dr"] / cand["pkt"] * (1.0 + cand["p"])
            if champ_key <= cand_key:
                best = i
                reason = "low_regime"
            i += 1
            continue

        fell_through = False
        if regime == HIGH:
            champ_key = champ["dr"] * (1.0 + champ["p"]) / champ["sr"]
            cand_key = cand["dr"] * (1.0 + cand["p"]) / cand["sr"]
            if champ_key >= cand_key:
                best = i
                reason = "high_regime"
                i += 1
                continue
            fell_through = True

        if literal_mid:
            # the original mid lines compare and do nothing
            i += 1
            continue

        champ_work = champ["sr"] * champ["pkt"]
        cand_work = cand["sr"] * cand["pkt"]
        if cand_work < champ_work:
            best = i
            reason = "mid_size"
        elif cand_work == champ_work:
            if cand["dr"] / cand["pkt"] <= champ["dr"] / champ["pkt"]:
                best = i
                reason = "mid_deadline"
        del fell_through
        i += 1

    return best, reason


def reference_rswn(blocks, now, bw):
    """The rswn baseline with tuple keys: among blocks whose unacked bytes
    fit in the time left until the expiry instant ``expires_at`` at
    bandwidth bw (none when bw <= 0), the least key (-(1 + P), expiry
    instant) wins, the first of equal keys; the score is the weight 1 + P.
    With nothing completable, the earliest expiry instant wins, the first
    of equal ones, and it is the score. Returns (winner_index, score) or
    (None, None)."""
    if not blocks:
        return None, None
    best = -1
    best_key = None
    for i, block in enumerate(blocks):
        if bw <= 0 or (block.total_bytes - block.acked_bytes) / bw > block.expires_at - now:
            continue
        key = (-(1 + block.priority), block.expires_at)
        if best < 0 or key < best_key:
            best, best_key = i, key
    if best < 0:
        best = min(range(len(blocks)), key=lambda i: (blocks[i].expires_at, i))
        return best, blocks[best].expires_at
    return best, float(1 + blocks[best].priority)
