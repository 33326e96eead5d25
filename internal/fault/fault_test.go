package fault

import (
	"errors"
	"testing"

	"envy/internal/sim"
)

// point is one crash-point class as the table tests drive it: the plan
// that arms its Nth occurrence and the query the device would make.
type point struct {
	name string
	plan func(n int64) Plan
	at   func(in *Injector) bool
}

var points = []point{
	{"program", func(n int64) Plan { return Plan{Program: n} }, func(in *Injector) bool { _, c := in.AtProgram(64); return c }},
	{"erase", func(n int64) Plan { return Plan{Erase: n} }, (*Injector).AtErase},
	{"retarget", func(n int64) Plan { return Plan{Retarget: n} }, (*Injector).AtRetarget},
	{"merge", func(n int64) Plan { return Plan{Merge: n} }, (*Injector).AtMerge},
}

// TestNthPointFires: a count plan fires at exactly the Nth point of its
// class — not before, not after, not at another class's points — and a
// fired injector stays fired.
func TestNthPointFires(t *testing.T) {
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			in := NewInjector(p.plan(3))
			for _, other := range points {
				if other.name == p.name {
					continue
				}
				for i := 0; i < 5; i++ {
					if other.at(in) {
						t.Fatalf("%s plan fired at a %s point", p.name, other.name)
					}
				}
			}
			for i := 1; i <= 6; i++ {
				if got, want := p.at(in), i == 3; got != want {
					t.Fatalf("point %d: fired = %v, want %v", i, got, want)
				}
				if in.Fired() != (i >= 3) {
					t.Fatalf("point %d: Fired() = %v", i, in.Fired())
				}
			}
		})
	}
}

// TestTimePlan: once Tick sees the clock at or past Plan.At, the next
// crash point of any class fires; before that none does.
func TestTimePlan(t *testing.T) {
	for _, p := range points {
		in := NewInjector(Plan{At: 100})
		in.Tick(sim.Time(99))
		if p.at(in) {
			t.Fatalf("%s: fired before Plan.At", p.name)
		}
		in.Tick(sim.Time(100))
		if !p.at(in) {
			t.Fatalf("%s: did not fire at the first point past Plan.At", p.name)
		}
		if p.at(in) {
			t.Fatalf("%s: fired twice", p.name)
		}
	}
}

// TestSeedReproducible: the same Seed gives the same probabilistic
// firing point, the same tear shape and the same TearSeed stream; a
// different Seed gives a different stream.
func TestSeedReproducible(t *testing.T) {
	run := func(seed uint64) (firedAt int, tear Tear, seeds [4]uint64) {
		in := NewInjector(Plan{Probability: 0.05, Seed: seed})
		for i := 1; i <= 10000; i++ {
			if tr, crash := in.AtProgram(256); crash {
				firedAt, tear = i, tr
				break
			}
		}
		for i := range seeds {
			seeds[i] = in.TearSeed()
		}
		return firedAt, tear, seeds
	}
	at1, tear1, seeds1 := run(7)
	at2, tear2, seeds2 := run(7)
	if at1 == 0 {
		t.Fatal("probability 0.05 never fired in 10000 points")
	}
	if at1 != at2 || tear1 != tear2 || seeds1 != seeds2 {
		t.Fatalf("seed 7 replayed differently: point %d/%d, tear %+v/%+v, seeds %v/%v", at1, at2, tear1, tear2, seeds1, seeds2)
	}
	if tear1.FullBytes < 0 || tear1.FullBytes >= 256 {
		t.Fatalf("tear covers %d full bytes of a 256-byte page", tear1.FullBytes)
	}
	if _, _, other := run(8); other == seeds1 {
		t.Fatal("seeds 7 and 8 produced the same TearSeed stream")
	}
}

// TestZeroPlanNeverFires: the zero Plan is not Armed and its injector
// answers "no crash" at every point, Tick or no Tick.
func TestZeroPlanNeverFires(t *testing.T) {
	if (Plan{}).Armed() {
		t.Fatal("zero Plan reports Armed")
	}
	if (Plan{Seed: 9}).Armed() {
		t.Fatal("a Seed alone arms the plan")
	}
	for _, p := range points {
		if !p.plan(1).Armed() {
			t.Fatalf("%s plan reports not Armed", p.name)
		}
	}
	if !(Plan{At: 1}).Armed() || !(Plan{Probability: 0.5}).Armed() {
		t.Fatal("time or probability plan reports not Armed")
	}
	in := NewInjector(Plan{})
	in.Tick(sim.Time(1 << 40))
	for i := 0; i < 1000; i++ {
		for _, p := range points {
			if p.at(in) {
				t.Fatalf("zero plan fired at %s point %d", p.name, i+1)
			}
		}
	}
	if in.Fired() {
		t.Fatal("zero plan injector reports Fired")
	}
}

// TestCountsMatchCalls: Counts and MergeBoundaries report the points
// observed per class, the firing one included.
func TestCountsMatchCalls(t *testing.T) {
	in := NewInjector(Plan{Erase: 2})
	for i := 0; i < 5; i++ {
		in.AtProgram(64)
	}
	in.AtErase()
	if !in.AtErase() {
		t.Fatal("second erase did not fire")
	}
	for i := 0; i < 3; i++ {
		in.AtRetarget()
	}
	for i := 0; i < 4; i++ {
		in.AtMerge()
	}
	pr, er, re := in.Counts()
	if pr != 5 || er != 2 || re != 3 || in.MergeBoundaries() != 4 {
		t.Fatalf("Counts = %d/%d/%d, MergeBoundaries = %d; want 5/2/3 and 4", pr, er, re, in.MergeBoundaries())
	}
	if in.Plan() != (Plan{Erase: 2}) {
		t.Fatalf("Plan() = %+v", in.Plan())
	}
}

// TestCrashIsPowerFailure: every crash value identifies as the
// sentinel, whichever point produced it.
func TestCrashIsPowerFailure(t *testing.T) {
	for p := PointProgram; p <= PointMerge; p++ {
		var err error = &Crash{Point: p}
		if !errors.Is(err, ErrPowerFailure) {
			t.Errorf("%v crash is not ErrPowerFailure", p)
		}
		if err.Error() == "" || p.String() == "" {
			t.Errorf("%v crash has an empty description", p)
		}
	}
}
