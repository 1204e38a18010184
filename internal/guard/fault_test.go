package guard

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// injCtx returns a context with an unlimited budget, checkpoint
// granularity 1 (so every work unit is a checkpoint) and the given
// faults armed.
func injCtx(faults ...Fault) (context.Context, *Injector) {
	inj := NewInjector(faults...)
	b := Unlimited()
	b.CheckEvery = 1
	ctx := WithInjector(WithBudget(context.Background(), b), inj)
	return ctx, inj
}

func TestInjectErrorAtNthCheckpoint(t *testing.T) {
	ctx, inj := injCtx(Fault{Engine: "matrix", Point: PointCheckpoint, Mode: ModeError, N: 3})
	m := NewMeter(ctx, "matrix")
	m.Phase("loop")
	for i := 1; i <= 2; i++ {
		if err := m.Tick(1); err != nil {
			t.Fatalf("checkpoint %d failed early: %v", i, err)
		}
	}
	err := m.Tick(1)
	if err == nil {
		t.Fatal("3rd checkpoint did not fire the armed fault")
	}
	if !errors.Is(err, ErrEngineFailed) {
		t.Errorf("injected error wraps %v, want ErrEngineFailed", err)
	}
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Engine != "matrix" || ee.Phase != "loop" {
		t.Errorf("injected error not attributed: %v", err)
	}
	if inj.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", inj.Fired())
	}
	// One-shot: the disarmed fault never fires again.
	for i := 0; i < 10; i++ {
		if err := m.Tick(1); err != nil {
			t.Fatalf("disarmed fault fired again: %v", err)
		}
	}
}

func TestInjectEngineSelectivity(t *testing.T) {
	ctx, inj := injCtx(Fault{Engine: "matrix", Point: PointCheckpoint, Mode: ModeError})
	other := NewMeter(ctx, "statespace")
	for i := 0; i < 5; i++ {
		if err := other.Tick(1); err != nil {
			t.Fatalf("fault armed for matrix fired in statespace: %v", err)
		}
	}
	if inj.Fired() != 0 {
		t.Fatalf("Fired = %d before the matching engine ran", inj.Fired())
	}
	if err := NewMeter(ctx, "matrix").Canceled(); !errors.Is(err, ErrEngineFailed) {
		t.Errorf("matching engine's first checkpoint: %v, want injected failure", err)
	}
}

func TestInjectPanicCaughtByProtect(t *testing.T) {
	ctx, _ := injCtx(Fault{Point: PointCheckpoint, Mode: ModePanic})
	err := Protect("sim", "run", func() error {
		m := NewMeter(ctx, "sim")
		return m.Tick(1)
	})
	if !errors.Is(err, ErrEngineFailed) {
		t.Fatalf("Protect returned %v, want ErrEngineFailed from injected panic", err)
	}
}

func TestInjectRefuseAtPrecheck(t *testing.T) {
	ctx, _ := injCtx(Fault{Point: PointPrecheck, Mode: ModeRefuse})
	m := NewMeter(ctx, "traditional")
	err := m.NeedActors(4)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("NeedActors = %v, want injected ErrBudgetExceeded", err)
	}
	// Other prechecks are untouched once the one-shot fault fired.
	if err := m.NeedFirings(4); err != nil {
		t.Errorf("NeedFirings after disarm: %v", err)
	}
	if err := m.NeedTokens(4); err != nil {
		t.Errorf("NeedTokens after disarm: %v", err)
	}
}

func TestInjectRefuseNthAlloc(t *testing.T) {
	ctx, _ := injCtx(Fault{Point: PointAlloc, Mode: ModeRefuse, N: 2})
	m := NewMeter(ctx, "schedule")
	if c, err := m.Alloc(100); err != nil || c != 100 {
		t.Fatalf("1st Alloc = (%d, %v), want (100, nil)", c, err)
	}
	c, err := m.Alloc(100)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("2nd Alloc = (%d, %v), want injected ErrBudgetExceeded", c, err)
	}
}

func TestAllocClampsLikeSliceCap(t *testing.T) {
	m := NewMeter(context.Background(), "schedule")
	if c, err := m.Alloc(-1); err != nil || c != 0 {
		t.Errorf("Alloc(-1) = (%d, %v), want (0, nil)", c, err)
	}
	if c, err := m.Alloc(1 << 40); err != nil || c != 1<<20 {
		t.Errorf("Alloc(1<<40) = (%d, %v), want clamp to %d", c, err, 1<<20)
	}
}

func TestInjectorZeroNMeansFirst(t *testing.T) {
	ctx, _ := injCtx(Fault{Point: PointCheckpoint, Mode: ModeError, N: 0})
	if err := NewMeter(ctx, "x").Canceled(); !errors.Is(err, ErrEngineFailed) {
		t.Fatalf("N=0 fault did not fire on the first checkpoint: %v", err)
	}
}

func TestInjectRepeatingFault(t *testing.T) {
	// Times=3, N=2: fires on every 2nd checkpoint, three times total.
	ctx, inj := injCtx(Fault{Point: PointCheckpoint, Mode: ModeError, N: 2, Times: 3})
	m := NewMeter(ctx, "matrix")
	var failures int
	for i := 0; i < 20; i++ {
		if err := m.Tick(1); err != nil {
			failures++
			if want := []int{1, 3, 5}; failures <= 3 && i != want[failures-1] {
				t.Errorf("firing %d at checkpoint %d, want %d", failures, i, want[failures-1])
			}
		}
	}
	if failures != 3 {
		t.Fatalf("repeating fault fired %d times, want 3", failures)
	}
	if inj.Fired() != 3 {
		t.Errorf("Fired = %d, want 3", inj.Fired())
	}
}

func TestInjectUnlimitedFault(t *testing.T) {
	ctx, inj := injCtx(Fault{Engine: "statespace", Point: PointCheckpoint, Mode: ModeError, Times: -1})
	m := NewMeter(ctx, "statespace")
	for i := 0; i < 10; i++ {
		if err := m.Tick(1); !errors.Is(err, ErrEngineFailed) {
			t.Fatalf("unlimited fault went quiet at checkpoint %d: %v", i, err)
		}
	}
	if inj.Fired() != 10 {
		t.Errorf("Fired = %d, want 10", inj.Fired())
	}
}

// TestInjectorConcurrentOneShot hammers a single injector from many
// worker goroutines, the access pattern of the serving layer where
// every request goroutine strikes the same injector. Run under -race
// this proves the counters are synchronised; the assertion proves a
// one-shot fault fires exactly once across all workers.
func TestInjectorConcurrentOneShot(t *testing.T) {
	const workers, ticks = 16, 200
	ctx, inj := injCtx(
		Fault{Point: PointCheckpoint, Mode: ModeError, N: 100},
		Fault{Point: PointPrecheck, Mode: ModeRefuse, N: 50},
	)
	var wg sync.WaitGroup
	var checkpointFaults, precheckFaults atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewMeter(ctx, "matrix")
			for i := 0; i < ticks; i++ {
				if err := m.Tick(1); err != nil {
					checkpointFaults.Add(1)
				}
				// NeedFirings ends in a context poll, which is a
				// checkpoint strike too: the checkpoint fault can
				// surface there.
				switch err := m.NeedFirings(1); {
				case errors.Is(err, ErrBudgetExceeded):
					precheckFaults.Add(1)
				case errors.Is(err, ErrEngineFailed):
					checkpointFaults.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := checkpointFaults.Load(); got != 1 {
		t.Errorf("one-shot checkpoint fault fired %d times across workers, want 1", got)
	}
	if got := precheckFaults.Load(); got != 1 {
		t.Errorf("one-shot precheck fault fired %d times across workers, want 1", got)
	}
	if inj.Fired() != 2 {
		t.Errorf("Fired = %d, want 2", inj.Fired())
	}
}

// TestInjectorConcurrentArm arms faults while workers are striking:
// the serving soak test does exactly this to switch injection phases.
func TestInjectorConcurrentArm(t *testing.T) {
	const workers = 8
	ctx, inj := injCtx()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var fired atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewMeter(ctx, "statespace")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.Tick(1); err != nil {
					fired.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		inj.Arm(Fault{Engine: "statespace", Point: PointCheckpoint, Mode: ModeError})
	}
	// Wait until every armed fault has been consumed, then stop.
	for inj.Fired() < 50 {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := fired.Load(); got != 50 {
		t.Errorf("workers observed %d firings, want 50", got)
	}
}

func TestPointAndModeStrings(t *testing.T) {
	cases := map[string]string{
		PointCheckpoint.String(): "checkpoint",
		PointPrecheck.String():   "precheck",
		PointAlloc.String():      "alloc",
		ModeError.String():       "error",
		ModePanic.String():       "panic",
		ModeRefuse.String():      "refuse",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if FaultPoint(99).String() == "" || FaultMode(99).String() == "" {
		t.Error("out-of-range String() empty")
	}
}
