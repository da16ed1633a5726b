package core

// ControllerSet builds the per-worker delay-stretch controllers for a run
// together with the shared state that Hsync mode needs. It is the facade
// through which engines outside this package (the virtual-time simulator)
// instantiate the same δ functions the concurrent engine uses.
type ControllerSet struct {
	ctrls []Controller
	hsync *hsyncState
}

// NewControllerSet creates one controller per worker for the options.
func NewControllerSet(opts Options, m int) *ControllerSet {
	s := &ControllerSet{ctrls: make([]Controller, m)}
	if opts.Mode == Hsync {
		s.hsync = &hsyncState{}
	}
	for i := range s.ctrls {
		s.ctrls[i] = newController(opts, s.hsync)
	}
	return s
}

// Controller returns worker i's controller.
func (s *ControllerSet) Controller(i int) Controller { return s.ctrls[i] }

// ObserveConsumed feeds message consumption into the Hsync throughput
// window; a no-op for other modes.
func (s *ControllerSet) ObserveConsumed(n int64) {
	if s.hsync != nil {
		s.hsync.processed.Add(n)
	}
}

// ObserveRound feeds round completion into the Hsync phase switcher; a
// no-op for other modes.
func (s *ControllerSet) ObserveRound(rmax int32) {
	if s.hsync != nil {
		s.hsync.observe(rmax)
	}
}
