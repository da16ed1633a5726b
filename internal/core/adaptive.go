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
// progress and the staleness of its buffer, in the paper's notation
// (r_i, r_min, r_max, η_i) plus the runtime estimates used by Eq. (1).
type View struct {
	Worker     int
	NumWorkers int

	Round int32 // r_i: rounds completed by this worker
	RMin  int32 // smallest round among active workers
	RMax  int32 // largest round among all workers

	Eta      int // η_i: messages in B_x̄i counted by distinct origin worker
	Buffered int // raw message count in B_x̄i

	RoundTime    float64 // t_i: predicted duration of the next round (seconds)
	AvgRoundTime float64 // mean predicted round time across workers
	Rate         float64 // s_i: predicted message arrival rate (messages/second)
	IdleTime     float64 // T_idle: time since this worker's last round ended
}

// Controller decides the delay stretch DS_i of one worker. A Controller
// instance belongs to a single worker, so implementations may keep
// per-worker adaptive state (such as the accumulation target L_i) without
// synchronization.
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
	// AAP is the adaptive model of the paper: Eq. (1) with dynamically
	// adjusted accumulation targets.
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

// bspController implements δ for BSP: a worker that has completed more
// rounds than the slowest active worker is suspended, so no worker can
// outpace the others.
type bspController struct{}

func (bspController) Delay(v View) float64 {
	if v.Round > v.RMin {
		return Forever
	}
	return 0
}

// apController implements δ for AP: never wait.
type apController struct{}

func (apController) Delay(View) float64 { return 0 }

// sspController implements δ for SSP with staleness bound C: the fastest
// worker may outpace the slowest by at most C rounds.
type sspController struct{ C int32 }

func (c sspController) Delay(v View) float64 {
	if v.Round-v.RMin > c.C {
		return Forever
	}
	return 0
}

// aapController implements the dynamic adjustment function δ of Eq. (1):
//
//	DS_i = Forever            if ¬S(r_i, r_min, r_max) or η_i = 0
//	DS_i = T_Li − T_idle      if S and 1 ≤ η_i < L_i
//	DS_i = 0                  if S and η_i ≥ L_i
//
// where L_i predicts how many messages are worth accumulating before the
// next round and T_Li = (L_i − η_i)/s_i estimates the time to accumulate
// them. L_i starts at the user bound L⊥. A straggler (t_i above 1.25×
// the cluster-average round time) raises it to max(η_i + Δt_i·s_i, L⊥)
// when more messages are predicted within Δt_i; every other worker runs
// as soon as it has messages.
type aapController struct {
	// LFloor is L⊥, the user-selectable initial accumulation bound.
	LFloor float64
	// C is the bounded-staleness constant for predicate S; C <= 0 means
	// S is constantly true (SSSP, CC, PageRank need no staleness bound,
	// Section 5.3).
	C int32
	// DeltaFrac is the fraction of the predicted round time used as the
	// extra accumulation window Δt_i.
	DeltaFrac float64

	l float64 // L_i
}

// newAAPController returns an AAP controller with the paper's defaults.
func newAAPController(lFloor float64, c int32) *aapController {
	return &aapController{LFloor: lFloor, C: c, DeltaFrac: 0.5, l: lFloor}
}

func (c *aapController) Delay(v View) float64 {
	// Predicate S: false only under bounded staleness when this worker
	// is the fastest and too far ahead of the slowest.
	if c.C > 0 && v.Round >= v.RMax && v.Round-v.RMin > c.C {
		return Forever
	}
	if v.Eta == 0 {
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
	// Δt_i is the straggler's accumulation window, a fraction of the
	// cluster-average round time: waiting about half of everyone else's
	// round lets one slow round fold one round's worth of updates from
	// every fast worker instead of cascading each batch separately.
	// (Scaling by the straggler's own round time would over-wait right
	// after an expensive PEval whose successor rounds are cheap bounded
	// incremental steps.)
	dt := c.DeltaFrac * v.AvgRoundTime
	if v.Rate*dt < 1 {
		// No messages are predicted to arrive within the window; waiting
		// buys nothing (the paper's "DS_i = 0 since no messages are
		// predicted to arrive" case).
		return 0
	}
	// L_i = max(η_i + Δt_i·s_i, L⊥): the staleness we expect to absorb
	// within the window (Section 3's adjustment rule).
	c.l = math.Max(float64(v.Eta)+v.Rate*dt, c.LFloor)
	if float64(v.Eta) >= c.l {
		return 0
	}
	// T_Li = (L_i − η_i)/s_i, bounded by the window, less the time
	// already spent idle.
	ds := (c.l - float64(v.Eta)) / v.Rate
	if ds > dt {
		ds = dt
	}
	ds -= v.IdleTime
	if ds <= 0 {
		return 0
	}
	return ds
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

// hsyncController follows the shared phase: BSP semantics during BSP
// phases, AP semantics otherwise.
type hsyncController struct{ state *hsyncState }

func (c hsyncController) Delay(v View) float64 {
	if c.state.bspPhase.Load() && v.Round > v.RMin {
		return Forever
	}
	return 0
}

// newController builds the Controller for one worker under the options.
func newController(opts Options, hs *hsyncState) Controller {
	switch opts.Mode {
	case BSP:
		return bspController{}
	case AP:
		return apController{}
	case SSP:
		return sspController{C: int32(opts.Staleness)}
	case Hsync:
		return hsyncController{state: hs}
	default:
		return newAAPController(float64(opts.LFloor), int32(opts.Staleness))
	}
}
