package core

// WorkerStats accumulates per-worker measurements of a run.
type WorkerStats struct {
	Rounds      int32   // completed rounds, PEval included
	BusySeconds float64 // time spent inside PEval/IncEval
	IdleSeconds float64 // the rest of the run: Seconds − BusySeconds
	Work        int64   // work units reported via Context.AddWork
	MsgsSent    int64
	BytesSent   int64
	MsgsRecv    int64
}

// RunStats summarizes one engine run. Times are wall-clock seconds for
// a real run and virtual seconds for a simulated one (Simulate).
type RunStats struct {
	Job     string
	Mode    string
	Workers []WorkerStats

	Seconds    float64
	TotalMsgs  int64
	TotalBytes int64
	TotalWork  int64
	TotalIdle  float64
	TotalBusy  float64
	MaxRound   int32
	MinRound   int32
	SumRounds  int64

	// Fault-tolerance accounting, zero unless checkpointing or fault
	// injection was enabled for the run.
	Checkpoints     int64   // snapshot epochs sealed
	CheckpointBytes int64   // cumulative serialized state bytes across sealed snapshots
	Recoveries      int64   // rollback-and-resume cycles executed
	RecoverySeconds float64 // time quiesced in recovery, on the run's clock: virtual under Simulate

	// Self-healing supervision accounting: the failure ladder is
	// respawn+rejoin → (budget exhausted) local failback → (no snapshot
	// sealed in memory yet) fresh restart, and each rung leaves its count
	// here. Zero unless Transport.Supervisor (Restarts/RejoinSeconds) or
	// recovery (Failbacks/FreshRestarts) ran.
	Restarts      int64   // remote hosts respawned and rejoined mid-run
	RejoinSeconds float64 // wall time from respawn grant to completed handshake
	Failbacks     int64   // dead remote workers failed back to local Programs
	FreshRestarts int64   // rollbacks that found no sealed snapshot (from-scratch)

	// Durable checkpoint accounting, zero unless Options.Checkpoint.Dir
	// was set (or the run was started by Resume).
	DurableBytes    int64   // record bytes written to the checkpoint dir
	FsyncCount      int64   // fsync syscalls issued by the durable store
	DroppedSeals    int64   // seals superseded by a newer one before their write
	DurableDegraded string  // first durable write error; run continued non-durable
	ResumeEpoch     int32   // sealed epoch the run resumed from, 0 for a fresh start
	ResumeBytes     int64   // record payload bytes read back by Resume
	ResumeSeconds   float64 // wall time from opening the dir to workers relaunched

	// Serving-plane accounting. ArenaBytes and ScannedEdges are filled
	// by the engine on every run: ArenaBytes estimates the per-query
	// vertex-state arena (slots + result vector priced at the job's wire
	// size — the only per-query memory; fragments and routing stay
	// shared in the Session), ScannedEdges sums the raw CSR edge scans
	// of kernels implementing core.ScanCounter. QueueWaitSeconds and
	// BatchSize are stamped by the internal/serve scheduler: wall time
	// the query spent in the admission queue, and how many queries its
	// engine run answered (1 unless queued SSSP queries for the same
	// source coalesced into one run).
	QueueWaitSeconds float64
	BatchSize        int
	ArenaBytes       int64
	ScannedEdges     int64

	// Transport accounting, zero unless the run used the TCP plane
	// (Options.Transport). WireBytes count real serialized frames —
	// headers, heartbeats and acks included — as written to / read from
	// sockets, unlike TotalBytes which is the model's accounted message
	// size.
	WireBytesOut      int64
	WireBytesIn       int64
	Retries           int64 // reconnect attempts across all links
	HeartbeatTimeouts int64 // links that entered suspicion at least once
}

// finalize derives the aggregate fields from the per-worker entries.
func (s *RunStats) finalize() {
	s.MinRound = 1 << 30
	for _, w := range s.Workers {
		s.TotalMsgs += w.MsgsSent
		s.TotalBytes += w.BytesSent
		s.TotalWork += w.Work
		s.TotalIdle += w.IdleSeconds
		s.TotalBusy += w.BusySeconds
		s.SumRounds += int64(w.Rounds)
		if w.Rounds > s.MaxRound {
			s.MaxRound = w.Rounds
		}
		if w.Rounds < s.MinRound {
			s.MinRound = w.Rounds
		}
	}
	if len(s.Workers) == 0 {
		s.MinRound = 0
	}
}

// EventKind names a worker transition that Options.Observe sees.
type EventKind uint8

const (
	RoundStart EventKind = iota // the worker is about to compute round Round (0: PEval)
	Round                       // it computed round Round: Seconds from Time, its Work and Msgs
	Decide                      // its controller returned Delay for View
)

// Event is one transition of one worker. Time is on the run's clock:
// wall seconds since the run began, or virtual seconds under Simulate,
// where a Round's figures are the cost model's.
type Event struct {
	Kind          EventKind
	Worker        int
	Round         int32
	Time, Seconds float64 // Seconds: a Round's duration
	Work, Msgs    int64   // Round
	View          View    // Decide
	Delay         float64 // Decide: at most 0 runs now, Forever suspends, else holds
}
