package host

// Adaptive queue depth. The depth sweep (cmd/experiments hostdepth)
// shows an interior optimum: depth 4 beats both 1 and 16 at saturation,
// because every host access at depth > 1 suspends the background
// operation on its bank and each resume costs the §3.4 ResumeDelay —
// at deep queues that suspend/resume churn eats the overlap win. The
// controller here holds the optimum without knowing the workload: it
// watches the device's suspension counter and throttles the effective
// admission depth (the bound Submit back-pressures against) inside
// [1, Depth]. Configured depth stays the hard capacity; the controller
// only moves the admission threshold, so it can relax instantly when
// churn subsides.
//
// The controller is AIMD on the per-completion suspension rate,
// evaluated every adaptWindow completions: churn above adaptHigh
// suspensions per completed request steps the effective depth down;
// churn below adaptLow steps it back up. All inputs live on the
// simulated clock and the deterministic counters, so adaptive runs
// replay bit-identically.

// suspensionSource is the optional backend surface the controller
// needs. *core.Device implements it; the engine's Backend interface is
// deliberately not widened, so fake backends without the counter keep
// working and EnableAdaptive on them reports false.
type suspensionSource interface {
	Suspensions() int64
}

const (
	// adaptWindow is how many completions between controller decisions.
	adaptWindow = 32
	// adaptHigh/adaptLow are the per-completion suspension rates that
	// trigger a depth step down/up. Between them the depth holds.
	adaptHigh = 1.5
	adaptLow  = 0.75
)

// EnableAdaptive turns the depth controller on, reporting whether the
// backend exposes the suspension counter it needs. The effective depth
// starts at the configured depth and adapts from the first window.
func (e *Engine) EnableAdaptive() bool {
	src, ok := e.be.(suspensionSource)
	if !ok {
		return false
	}
	e.adaptive = true
	e.src = src
	e.effDepth = e.depth
	e.minEff = e.depth
	e.window = 0
	e.lastSusp = src.Suspensions()
	return true
}

// Adaptive reports whether the depth controller is on.
func (e *Engine) Adaptive() bool { return e.adaptive }

// EffectiveDepth returns the current admission bound: the configured
// depth normally, the controller's throttled depth when adaptive.
func (e *Engine) EffectiveDepth() int { return e.effectiveDepth() }

// MinEffectiveDepth returns the deepest throttle the controller
// reached: the controller relaxes back toward the configured depth as
// soon as churn subsides (including during the final drain), so the
// end-of-run EffectiveDepth hides how far it actually stepped down
// mid-run. Returns the configured depth when adaptive is off or the
// controller never throttled.
func (e *Engine) MinEffectiveDepth() int {
	if !e.adaptive {
		return e.depth
	}
	return e.minEff
}

func (e *Engine) effectiveDepth() int {
	if e.adaptive {
		return e.effDepth
	}
	return e.depth
}

// adaptTick runs once per completion (from service) and, every
// adaptWindow completions, moves the effective depth one step against
// the observed suspension rate.
func (e *Engine) adaptTick() {
	if !e.adaptive {
		return
	}
	e.window++
	if e.window < adaptWindow {
		return
	}
	susp := e.src.Suspensions()
	rate := float64(susp-e.lastSusp) / float64(e.window)
	e.lastSusp = susp
	e.window = 0
	switch {
	case rate > adaptHigh && e.effDepth > 1:
		e.effDepth--
		if e.effDepth < e.minEff {
			e.minEff = e.effDepth
		}
	case rate < adaptLow && e.effDepth < e.depth:
		e.effDepth++
	}
}
