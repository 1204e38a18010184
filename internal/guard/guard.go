// Package guard is the resilience layer of the analysis stack. The
// paper's own motivation (§6) is that classical SDF algorithms blow up —
// the iteration length, and with it the traditional conversion, the
// schedule, the simulation and the state space, can be exponential in
// the graph description — so every long-running engine in this
// repository runs under a guard:
//
//   - a context.Context whose deadline/cancellation is honoured at
//     periodic checkpoints inside the hot loops,
//   - an explicit work Budget (states explored, firings executed, HSDF
//     actors materialised, initial-token count) checked both up front
//     against static size estimates and during execution,
//   - panic isolation (Protect) that converts an engine panic into a
//     structured *EngineError instead of killing the process, and
//   - a small error taxonomy (ErrBudgetExceeded, ErrCanceled,
//     ErrEngineFailed) that callers test with errors.Is to distinguish
//     "the input is too big", "you told me to stop" and "the engine is
//     broken".
//
// The package deliberately imports nothing from the rest of the
// repository — except internal/obs, which is itself dependency-free —
// so that every layer — maxplus, schedule, core, transform, sim,
// buffersizing, analysis — can depend on it. When the context carries
// an obs.Registry (the serving layer injects one), meters count budget
// refusals and fired fault injections into it; with no registry every
// instrumentation site is a nil-check no-op.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/obs"
)

// Sentinel errors of the taxonomy. Errors produced by this package wrap
// exactly one of them (plus, for ErrCanceled, the context's own cause),
// so errors.Is classification is always possible.
var (
	// ErrBudgetExceeded marks work refused or aborted because a Budget
	// dimension was (or would be) exhausted.
	ErrBudgetExceeded = errors.New("guard: work budget exceeded")
	// ErrCanceled marks work aborted because the context was done; the
	// context's cause (context.Canceled or context.DeadlineExceeded) is
	// wrapped alongside it.
	ErrCanceled = errors.New("guard: analysis canceled")
	// ErrEngineFailed marks an engine that panicked or failed
	// internally; the analysis runtime converts such failures into
	// errors so one bad engine cannot kill a multi-engine cross-check.
	ErrEngineFailed = errors.New("guard: engine failed")
)

// Budget caps the work one analysis may perform. A zero field means "use
// the default for this dimension"; a negative field means "unlimited".
type Budget struct {
	// MaxStates bounds state-space exploration: power-iteration steps
	// and other per-state work.
	MaxStates int64
	// MaxFirings bounds firing-granular work: schedule construction,
	// symbolic execution and discrete-event simulation all cost one
	// unit per actor firing, and the iteration length Σq is checked
	// against it before any of them starts.
	MaxFirings int64
	// MaxHSDFActors bounds the number of actors a conversion may
	// materialise; the traditional conversion's Σq estimate is refused
	// up front when it exceeds this.
	MaxHSDFActors int64
	// MaxTokens bounds the initial-token count N accepted by the
	// matrix-based engines, whose dense N×N tables would otherwise
	// exhaust memory.
	MaxTokens int64
	// CheckEvery is the checkpoint granularity: how many work units may
	// pass between polls of the context. Hot loops stay branch-cheap
	// between polls.
	CheckEvery int
}

// Default returns the budget used when a context carries none: generous
// enough for every graph of the paper's benchmark suite, small enough
// that an explosive conversion is refused in microseconds instead of
// exhausting the machine.
func Default() Budget {
	return Budget{
		MaxStates:     1 << 22,
		MaxFirings:    1 << 24,
		MaxHSDFActors: 1 << 20,
		MaxTokens:     1 << 11,
		CheckEvery:    1024,
	}
}

// Unlimited returns a budget with every dimension disabled. Deadlines
// and cancellation still apply; only the work caps are lifted.
func Unlimited() Budget {
	return Budget{MaxStates: -1, MaxFirings: -1, MaxHSDFActors: -1, MaxTokens: -1}
}

// Uniform returns a budget with every work dimension set to n (n <= 0
// means unlimited), the shape the -budget command-line flag exposes.
func Uniform(n int64) Budget {
	if n <= 0 {
		return Unlimited()
	}
	return Budget{MaxStates: n, MaxFirings: n, MaxHSDFActors: n, MaxTokens: n}
}

// Normalized replaces zero fields with their defaults so that callers
// can test budget dimensions with a plain >= 0 comparison.
func (b Budget) Normalized() Budget {
	d := Default()
	if b.MaxStates == 0 {
		b.MaxStates = d.MaxStates
	}
	if b.MaxFirings == 0 {
		b.MaxFirings = d.MaxFirings
	}
	if b.MaxHSDFActors == 0 {
		b.MaxHSDFActors = d.MaxHSDFActors
	}
	if b.MaxTokens == 0 {
		b.MaxTokens = d.MaxTokens
	}
	if b.CheckEvery <= 0 {
		b.CheckEvery = d.CheckEvery
	}
	return b
}

type budgetKey struct{}

// WithBudget returns a context carrying b; every Ctx analysis entry
// point reads its budget from the context it is given.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom returns the normalized budget carried by ctx, or the
// default budget when the context carries none.
func BudgetFrom(ctx context.Context) Budget {
	if b, ok := ctx.Value(budgetKey{}).(Budget); ok {
		return b.Normalized()
	}
	return Default()
}

// EngineError is the structured error of the analysis runtime: it names
// the engine and phase that stopped and carries the work counters at the
// moment of failure, and unwraps to the taxonomy sentinel (and, for
// cancellation, the context cause) for errors.Is.
type EngineError struct {
	// Engine names the analysis engine ("matrix", "statespace",
	// "traditional", "simulate", ...).
	Engine string
	// Phase names the stage within the engine ("precheck", "schedule",
	// "symbolic", "power-iteration", ...).
	Phase string
	// States and Firings are the work counters consumed when the
	// engine stopped.
	States  int64
	Firings int64
	// Err wraps exactly one taxonomy sentinel.
	Err error
}

// Error renders the engine, phase, cause and budget state.
func (e *EngineError) Error() string {
	return fmt.Sprintf("guard: engine %s: phase %s: %v [states=%d firings=%d]",
		e.Engine, e.Phase, e.Err, e.States, e.Firings)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *EngineError) Unwrap() error { return e.Err }

// Meter is the per-engine work accountant threaded through hot loops: it
// charges work units against the budget and polls the context every
// CheckEvery units. The zero Meter is not usable; construct with
// NewMeter.
type Meter struct {
	engine    string
	phase     string
	ctx       context.Context
	budget    Budget
	states    int64
	firings   int64
	sincePoll int
	inj       *Injector
	reg       *obs.Registry
}

// NewMeter returns a meter for the named engine, reading the budget,
// any armed fault injector and any observability registry from ctx.
func NewMeter(ctx context.Context, engine string) *Meter {
	return &Meter{
		engine: engine, phase: "start", ctx: ctx,
		budget: BudgetFrom(ctx), inj: InjectorFrom(ctx),
		reg: obs.FromContext(ctx),
	}
}

// Budget returns the normalized budget the meter enforces.
func (m *Meter) Budget() Budget { return m.budget }

// Phase labels the current stage of the engine; it appears in every
// EngineError the meter produces from now on.
func (m *Meter) Phase(name string) { m.phase = name }

func (m *Meter) fail(cause error) *EngineError {
	// Budget exhaustion is the one meter outcome the metrics plane
	// cares about per se: deadlines and cancellations are properties of
	// the request, but a budget refusal says the workload outgrew the
	// configured caps. Cold path — the analysis is over.
	if errors.Is(cause, ErrBudgetExceeded) {
		m.reg.Counter(obs.MetricBudgetExhausted, "engine", m.engine).Inc()
		m.reg.Emit("guard.budget-exhausted", "engine", m.engine, "phase", m.phase)
	}
	return &EngineError{
		Engine: m.engine, Phase: m.phase,
		States: m.states, Firings: m.firings, Err: cause,
	}
}

// Canceled polls the context immediately and returns a structured
// cancellation error when it is done. Each call is one checkpoint
// event for fault injection.
func (m *Meter) Canceled() error {
	if err := m.injected(PointCheckpoint); err != nil {
		return err
	}
	select {
	case <-m.ctx.Done():
		return m.fail(fmt.Errorf("%w: %w", ErrCanceled, context.Cause(m.ctx)))
	default:
		return nil
	}
}

// poll amortises context checks: only every CheckEvery accumulated work
// units is the (comparatively expensive) channel select performed.
func (m *Meter) poll(n int64) error {
	if n >= int64(m.budget.CheckEvery) {
		m.sincePoll = m.budget.CheckEvery
	} else {
		m.sincePoll += int(n)
	}
	if m.sincePoll < m.budget.CheckEvery {
		return nil
	}
	m.sincePoll = 0
	return m.Canceled()
}

// Tick charges n unclassified work units (loop iterations that are
// neither firings nor states): it only drives the periodic context
// poll.
func (m *Meter) Tick(n int64) error { return m.poll(n) }

// Firings charges n firings against MaxFirings and polls the context.
func (m *Meter) Firings(n int64) error {
	m.firings += n
	if max := m.budget.MaxFirings; max >= 0 && m.firings > max {
		return m.fail(fmt.Errorf("%w: %d firings exceed the limit of %d",
			ErrBudgetExceeded, m.firings, max))
	}
	return m.poll(n)
}

// States charges n explored states against MaxStates and polls the
// context.
func (m *Meter) States(n int64) error {
	m.states += n
	if max := m.budget.MaxStates; max >= 0 && m.states > max {
		return m.fail(fmt.Errorf("%w: %d states exceed the limit of %d",
			ErrBudgetExceeded, m.states, max))
	}
	return m.poll(n)
}

// NeedFirings refuses work up front when a statically known firing count
// exceeds the budget. A negative estimate means the estimate itself
// overflowed int64, which is refused unconditionally (not even an
// unlimited budget can execute more than int64 firings). It also polls
// the context, so an already-expired deadline fails here.
func (m *Meter) NeedFirings(estimate int64) error {
	if err := m.injected(PointPrecheck); err != nil {
		return err
	}
	if estimate < 0 {
		return m.fail(fmt.Errorf("%w: estimated firing count overflows int64", ErrBudgetExceeded))
	}
	if max := m.budget.MaxFirings; max >= 0 && estimate > max {
		return m.fail(fmt.Errorf("%w: estimated %d firings exceed the limit of %d",
			ErrBudgetExceeded, estimate, max))
	}
	return m.Canceled()
}

// NeedActors refuses a conversion up front when its statically estimated
// actor count exceeds MaxHSDFActors (negative estimate: the estimate
// overflowed int64).
func (m *Meter) NeedActors(estimate int64) error {
	if err := m.injected(PointPrecheck); err != nil {
		return err
	}
	if estimate < 0 {
		return m.fail(fmt.Errorf("%w: estimated actor count overflows int64", ErrBudgetExceeded))
	}
	if max := m.budget.MaxHSDFActors; max >= 0 && estimate > max {
		return m.fail(fmt.Errorf("%w: estimated %d HSDF actors exceed the limit of %d",
			ErrBudgetExceeded, estimate, max))
	}
	return m.Canceled()
}

// NeedTokens refuses a matrix-based engine up front when the
// initial-token count N exceeds MaxTokens (dense N×N tables).
func (m *Meter) NeedTokens(n int64) error {
	if err := m.injected(PointPrecheck); err != nil {
		return err
	}
	if max := m.budget.MaxTokens; max >= 0 && n > max {
		return m.fail(fmt.Errorf("%w: %d initial tokens exceed the limit of %d",
			ErrBudgetExceeded, n, max))
	}
	return m.Canceled()
}

// SliceCap clamps a pre-allocation capacity derived from untrusted graph
// parameters: slices sized from repetition vectors must grow on demand
// past this bound instead of allocating gigabytes before the first
// checkpoint can fire.
func SliceCap(n int64) int {
	const max = 1 << 20
	switch {
	case n < 0:
		return 0
	case n > max:
		return max
	default:
		return int(n)
	}
}

// Protect runs f with panic isolation: a panic inside f becomes a
// structured *EngineError wrapping ErrEngineFailed (with the panic value
// and a trimmed stack), so one broken engine degrades instead of
// killing a multi-engine analysis.
func Protect(engine, phase string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			const maxStack = 4096
			if len(stack) > maxStack {
				stack = stack[:maxStack]
			}
			err = &EngineError{
				Engine: engine, Phase: phase,
				Err: fmt.Errorf("%w: panic: %v\n%s", ErrEngineFailed, r, stack),
			}
		}
	}()
	return f()
}
