"""State-level stage operations of the log-gate pipeline, for the tests.

Each applies one slice of `dlog_pipeline.pipeline_kit` to a state, the way
`run_dlog_demo` walks the whole kit, so a test can stop between stages.
"""

from cycsim import dlog_pipeline as dl
from cycsim.hilbert import GateLedger, SimulationError, SparseState, apply_all
from cycsim.numtheory import CyclicGroupSpec, DomainError


def amplitude_amplify(state: SparseState, good_builder, full_builder, mode: str,
                      good_weight: float, grover_m: int | None = None,
                      ledger: GateLedger | None = None) -> tuple[SparseState, dict]:
    """Rotate weight onto the good component of `state`.

    good_builder/full_builder map a phase angle to the corresponding rotation
    gate; good_weight is the current weight of the good component.
    """
    schedule = dl.amplification_schedule(good_weight, mode, grover_m)
    state = apply_all(state, [gate for phi in schedule
                              for gate in (good_builder(phi), full_builder(phi))], ledger)
    info = {"mode": mode, "iterations": len(schedule),
            "phases": schedule, "initial_weight": good_weight}
    return state, info


def prepare_psi1(spec: CyclicGroupSpec, b: int,
                 ledger: GateLedger | None = None) -> SparseState:
    """Uniform double index superposition with the functional register loaded:
    support (p-1)^2, every amplitude of magnitude 1/(p-1)."""
    if not 1 <= b < spec.p:
        raise DomainError(f"instance value {b} outside the group")
    state = SparseState.basis(dl.make_dlog_layout(spec), {dl.REGS.w: b})
    return apply_all(state, dl.pipeline_kit(spec)["psi1"], ledger)


def to_psi2(state: SparseState, spec: CyclicGroupSpec,
            ledger: GateLedger | None = None) -> SparseState:
    """Second Fourier pass and swap; afterwards the two index registers show
    exactly p-1 patterns (l, l*s mod (p-1))."""
    if state.support_size != (spec.p - 1) ** 2:
        raise SimulationError("input does not have the double-superposition shape")
    return apply_all(state, dl.pipeline_kit(spec)["psi2"], ledger)


def euler_filter(state: SparseState, spec: CyclicGroupSpec,
                 ledger: GateLedger | None = None) -> tuple[SparseState, float]:
    """Apply the Euler-power filter; returns the state and the weight of the
    coprime components (phi(p-1)/(p-1) for a uniform pattern state)."""
    x = dl.REGS.x
    state = apply_all(state, dl.pipeline_kit(spec)["euler"], ledger)
    return state, state.weight_where(x, dl._coprime_mask(state.layout.dim(x), spec.p - 1))
