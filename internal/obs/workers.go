package obs

import (
	"sync/atomic"
)

// WorkerDelta is one worker's accounting for one unit of pool work (one
// BatchSearchCtx participation). Workers accumulate a delta privately while
// they run and flush it once on completion, so the hot loop shares nothing.
type WorkerDelta struct {
	// Tasks is how many queries the worker executed.
	Tasks int64
	// Steals is how many of those tasks were taken from another worker's
	// queue after the worker drained its own.
	Steals int64
	// BusyNS is time spent executing tasks.
	BusyNS int64
	// IdleNS is time spent inside the pool not executing tasks: waiting for
	// work, scanning steal victims, and the tail wait until the slowest
	// worker finishes.
	IdleNS int64
	// NodesVisited is index nodes traversed while executing tasks.
	NodesVisited int64
}

// workerSlot is one worker's cumulative counters. Slots are padded to a
// cache line so two workers flushing concurrently never share one,
// and scrapes (atomic loads) never stall a flush (atomic adds).
type workerSlot struct {
	tasks        atomic.Int64
	steals       atomic.Int64
	busyNS       atomic.Int64
	idleNS       atomic.Int64
	nodesVisited atomic.Int64
	_            [24]byte // pad the 40 bytes above to a 64-byte line
}

// WorkerShards is a sharded per-worker statistics table: one padded slot
// per pool worker, written lock-free by the owning worker at batch
// completion (Flush) and read lock-free by scrapes (Snapshot). Aggregate
// lock-acquisition waits — which belong to the whole engine rather than to
// any one worker — accumulate in a separate total (AddLockWait).
//
// All methods are nil-safe, matching the rest of the obs instruments.
type WorkerShards struct {
	slots      []workerSlot
	lockWaitNS atomic.Int64
	batches    atomic.Int64
}

// NewWorkerShards creates a table with n per-worker slots (minimum 1).
func NewWorkerShards(n int) *WorkerShards {
	if n < 1 {
		n = 1
	}
	return &WorkerShards{slots: make([]workerSlot, n)}
}

// Workers returns the number of slots (0 on a nil table).
func (ws *WorkerShards) Workers() int {
	if ws == nil {
		return 0
	}
	return len(ws.slots)
}

// Flush adds one worker's completed delta into its slot. Out-of-range
// worker indexes and nil tables are ignored.
func (ws *WorkerShards) Flush(worker int, d WorkerDelta) {
	if ws == nil || worker < 0 || worker >= len(ws.slots) {
		return
	}
	s := &ws.slots[worker]
	s.tasks.Add(d.Tasks)
	s.steals.Add(d.Steals)
	s.busyNS.Add(d.BusyNS)
	s.idleNS.Add(d.IdleNS)
	s.nodesVisited.Add(d.NodesVisited)
}

// AddLockWait accounts time spent acquiring the engine's mutex (reader or
// writer side) into the aggregate contention total.
func (ws *WorkerShards) AddLockWait(ns int64) {
	if ws == nil || ns <= 0 {
		return
	}
	ws.lockWaitNS.Add(ns)
}

// LockWaitNS returns the aggregate mutex-acquisition wait (0 on nil).
func (ws *WorkerShards) LockWaitNS() int64 {
	if ws == nil {
		return 0
	}
	return ws.lockWaitNS.Load()
}

// AddBatch counts one completed pool batch.
func (ws *WorkerShards) AddBatch() {
	if ws == nil {
		return
	}
	ws.batches.Add(1)
}

// Batches returns the number of completed pool batches (0 on nil).
func (ws *WorkerShards) Batches() int64 {
	if ws == nil {
		return 0
	}
	return ws.batches.Load()
}

// WorkerSnapshot is one worker's frozen cumulative state.
type WorkerSnapshot struct {
	Worker       int   `json:"worker"`
	Tasks        int64 `json:"tasks"`
	Steals       int64 `json:"steals"`
	BusyNS       int64 `json:"busy_ns"`
	IdleNS       int64 `json:"idle_ns"`
	NodesVisited int64 `json:"nodes_visited"`
	// Utilization is BusyNS / (BusyNS + IdleNS), 0 when the worker has
	// never run.
	Utilization float64 `json:"utilization"`
}

// Snapshot freezes every slot. The loads are atomic per field (a snapshot
// taken mid-flush may mix old and new fields of one slot, which is fine for
// monitoring counters). A nil table yields nil.
func (ws *WorkerShards) Snapshot() []WorkerSnapshot {
	if ws == nil {
		return nil
	}
	out := make([]WorkerSnapshot, len(ws.slots))
	for i := range ws.slots {
		s := &ws.slots[i]
		snap := WorkerSnapshot{
			Worker:       i,
			Tasks:        s.tasks.Load(),
			Steals:       s.steals.Load(),
			BusyNS:       s.busyNS.Load(),
			IdleNS:       s.idleNS.Load(),
			NodesVisited: s.nodesVisited.Load(),
		}
		if total := snap.BusyNS + snap.IdleNS; total > 0 {
			snap.Utilization = float64(snap.BusyNS) / float64(total)
		}
		out[i] = snap
	}
	return out
}

// WorkerShardsSnapshot is the JSON shape /debug/workers serves.
type WorkerShardsSnapshot struct {
	Workers    []WorkerSnapshot `json:"workers"`
	Batches    int64            `json:"batches"`
	LockWaitNS int64            `json:"lock_wait_ns"`
}

// Report bundles the per-worker snapshots with the aggregate totals.
func (ws *WorkerShards) Report() WorkerShardsSnapshot {
	rep := WorkerShardsSnapshot{Workers: ws.Snapshot()}
	if rep.Workers == nil {
		rep.Workers = []WorkerSnapshot{}
	}
	rep.Batches = ws.Batches()
	rep.LockWaitNS = ws.LockWaitNS()
	return rep
}
