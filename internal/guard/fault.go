// Deterministic fault injection for the resilience runtime. The
// degradation paths of the analysis stack — panic isolation, budget
// refusal, engine failure — are only trustworthy if tests can trigger
// them on demand, at a precise point, without sleeps or timing races.
// An Injector carried in the context arms counter-based faults: "panic
// at the 3rd meter checkpoint of the matrix engine", "refuse the 1st
// allocation of the traditional conversion". Each Meter consults the
// injector at its instrumentation points, so a fault fires after an
// exact, reproducible amount of work.
package guard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// FaultPoint identifies a class of instrumentation points inside a
// Meter at which an armed fault can fire.
type FaultPoint int

const (
	// PointCheckpoint fires at a context checkpoint: every Canceled
	// call, including the amortised polls driven by Tick, Firings and
	// States. One checkpoint event is counted per actual poll, not per
	// work unit, so the Nth checkpoint is deterministic for a given
	// CheckEvery and work sequence.
	PointCheckpoint FaultPoint = iota
	// PointPrecheck fires at an up-front admission check (NeedFirings,
	// NeedActors, NeedTokens), before the check's own logic runs.
	PointPrecheck
	// PointAlloc fires at a budgeted pre-allocation request
	// (Meter.Alloc), before the capacity is granted.
	PointAlloc
)

// String names the point for error messages.
func (p FaultPoint) String() string {
	switch p {
	case PointCheckpoint:
		return "checkpoint"
	case PointPrecheck:
		return "precheck"
	case PointAlloc:
		return "alloc"
	default:
		return fmt.Sprintf("point(%d)", int(p))
	}
}

// FaultMode selects what happens when a fault fires.
type FaultMode int

const (
	// ModeError returns a structured *EngineError wrapping
	// ErrEngineFailed, as if the engine had detected an internal
	// inconsistency.
	ModeError FaultMode = iota
	// ModePanic panics, exercising the Protect isolation layer.
	ModePanic
	// ModeRefuse returns a structured *EngineError wrapping
	// ErrBudgetExceeded, exercising the documented degradation path
	// (the hedged policy records the refusal and moves on).
	ModeRefuse
)

// String names the mode for error messages.
func (mo FaultMode) String() string {
	switch mo {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeRefuse:
		return "refuse"
	default:
		return fmt.Sprintf("mode(%d)", int(mo))
	}
}

// Fault arms one deterministic failure: every Nth event matching
// (Engine, Point) triggers Mode. By default a fault is one-shot — after
// firing it is disarmed, so a retrying caller observes exactly one
// failure — but Times can rearm it for a fixed number of firings or
// forever, which is how a soak test keeps one engine sick for as long
// as it chooses.
type Fault struct {
	// Engine restricts the fault to meters created for that engine
	// name; empty matches every engine.
	Engine string
	// Point selects the instrumentation-point class.
	Point FaultPoint
	// Mode selects the failure behaviour.
	Mode FaultMode
	// N is the 1-based index of the matching event that triggers the
	// fault; values below 1 are treated as 1 (fire on the first match).
	// A repeating fault (Times != 0) resets its event count after each
	// firing, so it fires on every Nth match.
	N int64
	// Times bounds how often the fault fires: 0 and 1 mean one-shot,
	// larger values fire that many times, negative values never disarm.
	Times int64
}

type armedFault struct {
	Fault
	count int64 // matching events since the last firing
	fired int64 // total firings of this fault
}

// disarmed reports whether the fault has exhausted its firings.
func (f *armedFault) disarmed() bool {
	switch {
	case f.Times < 0:
		return false
	case f.Times <= 1:
		return f.fired >= 1
	default:
		return f.fired >= f.Times
	}
}

// Injector holds armed faults and counts matching events. It is safe
// for concurrent use: hedged engines racing in goroutines — and, in the
// serving layer, unrelated requests on separate server goroutines —
// share one injector through the context, so every counter (per-fault
// event counts, per-fault firings, the global fired total) is read and
// advanced under one lock, and a one-shot fault fires exactly once no
// matter how many meters strike it simultaneously.
type Injector struct {
	mu     sync.Mutex
	faults []armedFault
	fired  int64
}

// NewInjector arms the given faults.
func NewInjector(faults ...Fault) *Injector {
	inj := &Injector{}
	inj.Arm(faults...)
	return inj
}

// Arm appends more faults to the injector at runtime; a long-running
// server test arms and exhausts faults in phases without rebuilding the
// contexts that carry the injector. Safe for concurrent use with
// in-flight strikes.
func (inj *Injector) Arm(faults ...Fault) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, f := range faults {
		if f.N < 1 {
			f.N = 1
		}
		inj.faults = append(inj.faults, armedFault{Fault: f})
	}
}

// Fired reports how many fault firings have occurred so far (a
// repeating fault counts once per firing).
func (inj *Injector) Fired() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return int(inj.fired)
}

// strike records one event for engine at point p and reports the first
// armed fault whose count reached N, consuming one of its firings.
func (inj *Injector) strike(engine string, p FaultPoint) (Fault, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i := range inj.faults {
		f := &inj.faults[i]
		if f.disarmed() || f.Point != p || (f.Engine != "" && f.Engine != engine) {
			continue
		}
		f.count++
		if f.count >= f.N {
			f.count = 0
			f.fired++
			inj.fired++
			return f.Fault, true
		}
	}
	return Fault{}, false
}

type injectorKey struct{}

// WithInjector returns a context carrying inj; meters created from the
// context consult it at every instrumentation point.
func WithInjector(ctx context.Context, inj *Injector) context.Context {
	return context.WithValue(ctx, injectorKey{}, inj)
}

// InjectorFrom returns the injector carried by ctx, or nil.
func InjectorFrom(ctx context.Context) *Injector {
	inj, _ := ctx.Value(injectorKey{}).(*Injector)
	return inj
}

// injected consults the injector (if any) at point p and enacts the
// first fault that fires there.
func (m *Meter) injected(p FaultPoint) error {
	if m.inj == nil {
		return nil
	}
	f, ok := m.inj.strike(m.engine, p)
	if !ok {
		return nil
	}
	m.reg.Counter(obs.MetricFaultsFired, "engine", m.engine, "mode", f.Mode.String()).Inc()
	m.reg.Emit("guard.fault-fired",
		"engine", m.engine, "phase", m.phase, "point", p.String(), "mode", f.Mode.String())
	switch f.Mode {
	case ModePanic:
		panic(fmt.Sprintf("guard: injected panic in engine %s, phase %s, at %s #%d",
			m.engine, m.phase, p, f.N))
	case ModeRefuse:
		return m.fail(fmt.Errorf("%w: injected refusal at %s #%d",
			ErrBudgetExceeded, p, f.N))
	default:
		return m.fail(fmt.Errorf("%w: injected error at %s #%d",
			ErrEngineFailed, p, f.N))
	}
}

// Alloc grants a pre-allocation capacity derived from untrusted graph
// parameters: the returned capacity is clamped like SliceCap, and the
// request is an instrumentation point at which an armed allocation
// fault can refuse the grant. Engines use the returned capacity as a
// slice capacity hint and grow on demand past it.
func (m *Meter) Alloc(n int64) (int, error) {
	if err := m.injected(PointAlloc); err != nil {
		return 0, err
	}
	return SliceCap(n), nil
}
