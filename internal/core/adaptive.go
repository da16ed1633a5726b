package core

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Forever is the delay stretch meaning "suspend until the worker's state
// changes" (a new message arrives or relative progress advances).
var Forever = math.Inf(1)

// View is the information a delay-stretch controller sees when deciding
// whether worker i should start its next round: the worker's relative
// progress, in the paper's notation (r_i, r_min, r_max), and the runtime
// estimates AAP's δ reads. It holds exactly the inputs of a Delay, so the
// Decide event that carries it explains the decision.
type View struct {
	Round int32 // r_i: rounds completed by this worker
	RMin  int32 // smallest round among active workers
	RMax  int32 // largest round among all workers

	RoundTime    float64 // t_i: predicted duration of the next round (seconds)
	AvgRoundTime float64 // mean predicted round time across workers
	Rate         float64 // s_i: predicted message arrival rate (messages/second)
	IdleTime     float64 // T_idle: time since this worker's last round ended
}

// Controller decides the delay stretch DS_i of a worker with a non-empty
// buffer. A run holds one Controller, which every worker consults, so an
// implementation keeps no per-worker state.
type Controller interface {
	// Delay returns the delay stretch in seconds: 0 runs the next round
	// immediately, Forever suspends until the state changes, anything
	// else holds the worker for that long to accumulate messages.
	Delay(v View) float64
}

// Mode selects a parallel model; each is a Controller instantiation
// (Section 3, "special cases").
type Mode int

// Parallel models supported by the engine.
const (
	// AAP is the adaptive model of the paper: stragglers hold to
	// accumulate messages, everyone else runs at once (aapController).
	AAP Mode = iota
	// BSP synchronizes all workers: DS_i = Forever while r_i > r_min.
	BSP
	// AP never delays: DS_i = 0 whenever the buffer is nonempty.
	AP
	// SSP bounds staleness: DS_i = Forever while r_i - r_min > c.
	SSP
	// Hsync switches the whole cluster between AP and BSP phases on a
	// throughput heuristic, emulating PowerSwitch.
	Hsync
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case AAP:
		return "AAP"
	case BSP:
		return "BSP"
	case AP:
		return "AP"
	case SSP:
		return "SSP"
	case Hsync:
		return "Hsync"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of Mode.String, ignoring case.
func ParseMode(s string) (Mode, error) {
	for m := AAP; m <= Hsync; m++ {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (aap, bsp, ap, ssp, hsync)", s)
}

// apController implements δ for AP: never wait.
type apController struct{}

func (apController) Delay(View) float64 { return 0 }

// sspController implements δ for SSP with staleness bound C: the fastest
// worker may outpace the slowest by at most C rounds. C = 0 is BSP's δ: a
// worker that has completed more rounds than the slowest active worker is
// suspended, so no worker can outpace the others.
type sspController struct{ C int32 }

func (c sspController) Delay(v View) float64 {
	if v.Round-v.RMin > c.C {
		return Forever
	}
	return 0
}

// windowFrac sets Δt_i, the straggler's accumulation window, as a fraction
// of the cluster-average round time: waiting about half of everyone else's
// round lets one slow round fold one round's worth of updates from every
// fast worker instead of cascading each batch separately. (Scaling by the
// straggler's own round time would over-wait right after an expensive
// PEval whose successor rounds are cheap bounded incremental steps.)
const windowFrac = 0.5

// aapController implements AAP's dynamic adjustment function δ:
//
//	DS_i = Forever                if ¬S(r_i, r_min, r_max)
//	DS_i = max(Δt_i − T_idle, 0)  if t_i > 1.25·avg t and s_i·Δt_i ≥ 1
//	DS_i = 0                      otherwise (and before any estimate)
//
// with Δt_i = 0.5·avg t. This is Eq. (1) as it runs: Section 3 holds a
// worker until η_i reaches the target L_i = max(η_i + Δt_i·s_i, L⊥), for
// T_Li = (L_i − η_i)/s_i clipped to Δt_i. Recomputed from the current η_i
// at each decision, with s_i·Δt_i ≥ 1, L_i always lies ahead of η_i and
// T_Li is always clipped to Δt_i, whatever η_i and L⊥ are, so the hold
// is the window itself.
type aapController struct {
	// C is the bounded-staleness constant for predicate S; C <= 0 means
	// S is constantly true (SSSP, CC, PageRank need no staleness bound,
	// Section 5.3).
	C int32
}

func (c aapController) Delay(v View) float64 {
	// Predicate S: false only under bounded staleness when this worker
	// is the fastest and too far ahead of the slowest.
	if c.C > 0 && v.Round >= v.RMax && v.Round-v.RMin > c.C {
		return Forever
	}
	if v.Rate <= 0 || v.RoundTime <= 0 {
		return 0 // no estimates yet: behave like AP
	}
	// Only stragglers accumulate: a worker whose predicted round time is
	// near or below the cluster average runs as soon as it has messages
	// (the fast workers "automatically group together and run essentially
	// BSP within the group, while the group and slow workers run under
	// AP" — Section 3). A straggler folds many fast-worker updates into
	// one slow round by waiting, which is where AAP converges in fewer
	// rounds (Example 4).
	if v.AvgRoundTime > 0 && v.RoundTime <= 1.25*v.AvgRoundTime {
		return 0
	}
	dt := windowFrac * v.AvgRoundTime
	if v.Rate*dt < 1 {
		// No messages are predicted to arrive within the window; waiting
		// buys nothing (the paper's "DS_i = 0 since no messages are
		// predicted to arrive" case).
		return 0
	}
	// The window, less the time already spent idle.
	return max(dt-v.IdleTime, 0)
}

// nextRoundTimeEWMA updates the predicted round time t_i. The estimate
// is asymmetric: it tracks decreases quickly (bounded-incremental
// IncEval rounds get cheap right after an expensive PEval, and a stale
// high estimate would make the AAP controller over-wait) but rises
// conservatively.
func nextRoundTimeEWMA(prev, dur float64) float64 {
	if prev == 0 {
		return dur
	}
	if dur < prev {
		return 0.25*prev + 0.75*dur
	}
	return 0.5*prev + 0.5*dur
}

// hsyncState is the shared phase of an Hsync run: every worker consults
// it, and the phase flips between AP and BSP on a throughput window, the
// PowerSwitch heuristic. Mode switches are whole-cluster, which is
// exactly the rigidity AAP removes.
type hsyncState struct {
	bspPhase atomic.Bool
	// processed counts messages consumed in the current window.
	processed  atomic.Int64
	lastSwitch atomic.Int32 // r_max at the last switch
	lastScore  atomic.Int64 // messages consumed during the previous window
}

// hsyncWindow is how many global rounds an Hsync phase lasts.
const hsyncWindow = 4

// observe is called by workers as rounds complete; it flips the phase
// when the current phase processes fewer messages per window than the
// previous one did.
func (h *hsyncState) observe(rmax int32) {
	last := h.lastSwitch.Load()
	if rmax-last < hsyncWindow {
		return
	}
	if !h.lastSwitch.CompareAndSwap(last, rmax) {
		return
	}
	score := h.processed.Swap(0)
	prev := h.lastScore.Swap(score)
	if prev > 0 && score < prev {
		h.bspPhase.Store(!h.bspPhase.Load())
	}
}

// hsyncController follows the shared phase: BSP's δ during BSP phases,
// AP's otherwise.
type hsyncController struct{ state *hsyncState }

func (c hsyncController) Delay(v View) float64 {
	if c.state.bspPhase.Load() {
		return sspController{}.Delay(v)
	}
	return 0
}

// newController builds the one Controller of a run under the options.
func newController(opts Options, hs *hsyncState) Controller {
	switch opts.Mode {
	case BSP:
		return sspController{}
	case AP:
		return apController{}
	case SSP:
		return sspController{C: int32(opts.Staleness)}
	case Hsync:
		return hsyncController{state: hs}
	default:
		return aapController{C: int32(opts.Staleness)}
	}
}
