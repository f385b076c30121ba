"""Output checks for one scaling decision, and a digest of a run's decisions.

A check never raises: it returns the list of problems it found, so the
benchmark can count a failed decision and carry on.
"""

import hashlib
import math
import os

SHARE_TOL = 1e-6


def _pm(node):
    return node.index + 1


def decision_actions(inst, report):
    """(kept hosts, launched hosts, terminated hosts, shares) of a decision,
    hosts as sorted 1-based PM numbers, whichever solver produced it."""
    dec = report.decision
    if inst.method == "milp":              # milp.MilpSolution
        online = dict(inst.online)
        placed = {j: _pm(q) for j, q in dec.placement.items() if q is not None}
        kept = [q for j, q in placed.items() if j in online]
        launched = [q for j, q in placed.items() if j not in online]
        terminated = [host for j, host in online.items() if j not in placed]
        shares = [dec.shares.get(j, 0.0) for j in placed]
    else:                                  # scaling.ScalingDecision
        kept = [_pm(q) for q in dec.kept.values()]
        launched = [_pm(q) for q in dec.launched.values()]
        terminated = [_pm(q) for q in dec.terminated.values()]
        shares = list(dec.shares.values())
    return sorted(kept), sorted(launched), sorted(terminated), shares


def check(inst, report):
    """Problems with one decision; an empty list means it passed."""
    problems = ["expect: " + msg for msg in report.expect_failures]
    if report.state != inst.state:
        problems.append("state %s, generated as %s" % (report.state, inst.state))
    if report.v_star != inst.v_star:
        problems.append("v* %s, generated as %d" % (report.v_star, inst.v_star))
    dec = report.decision
    if dec is None:
        return problems + ["no decision"]

    if inst.method == "milp":
        if dec.status != "optimal" or not dec.proven:
            problems.append("milp result %s, proven=%s" % (dec.status, dec.proven))

    kept, launched, terminated, shares = decision_actions(inst, report)
    if len(kept) + len(launched) != inst.v_star:
        problems.append("%d kept + %d launched != v* %d"
                        % (len(kept), len(launched), inst.v_star))
    online_hosts = {host for _, host in inst.online}
    if not set(terminated) <= online_hosts:
        problems.append("terminated hosts %s not all online hosts %s"
                        % (terminated, sorted(online_hosts)))
    if not set(launched) <= inst.candidates:
        problems.append("launched hosts %s not all candidates" % launched)

    if inst.method == "rpadmm":
        # an unconverged ADMM point need not cover the traffic exactly,
        # so only finiteness is checked there
        objectives = report.admm_trace.objectives if report.admm_trace else []
        if not objectives or not all(math.isfinite(o) for o in objectives):
            problems.append("ADMM objectives not all finite")
    elif abs(sum(shares) - 1.0) > SHARE_TOL:
        problems.append("shares sum to %.9f" % sum(shares))
    if report.forwarding_cost is None or not math.isfinite(report.forwarding_cost):
        problems.append("forwarding cost %r" % report.forwarding_cost)
    return problems


def decision_key(inst, report):
    """Hosts plus rounded cost of one decision, as one line of text."""
    kept, launched, terminated, _ = decision_actions(inst, report)
    return "%s %s keep=%s launch=%s terminate=%s cost=%.6g" % (
        os.path.basename(inst.path), dict(inst.overrides), kept, launched,
        terminated, report.forwarding_cost)


def digest(keys):
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
