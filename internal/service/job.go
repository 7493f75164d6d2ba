package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hmcsim"
)

// State is a job's lifecycle position. Transitions are
// queued → running → done|failed, plus queued|running → canceled.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// outcome is the cached value format: the result's JSON plus the
// pre-rendered human text (which Result excludes from its own JSON).
// The result bytes pass through json.RawMessage untouched, so cache
// hits are byte-identical to the run that populated them.
type outcome struct {
	Result json.RawMessage `json:"result"`
	Text   string          `json:"text"`
}

// Job is one submitted simulation request moving through the queue and
// worker pool.
type Job struct {
	id   string
	spec hmcsim.Spec
	key  string

	// ctx governs this job only; cancel flips queued jobs straight to
	// canceled and asks running ones to abandon their sweep.
	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu        sync.Mutex
	state     State
	cached    bool
	err       string
	errCode   string
	result    json.RawMessage
	text      string
	submitted time.Time
	finished  time.Time

	// traceID correlates the job with the submission that created it;
	// marks are the span timestamps; worker is the pool index that ran
	// the job (-1 when none did); record, when set, receives the job's
	// flight record at the terminal transition.
	traceID string
	worker  int
	marks   spanMarks
	record  func(FlightRecord)

	// prog is the latest live-progress snapshot from the running sweep;
	// watchers are progress streams (SSE handlers), each a capacity-1
	// latest-value channel so a slow consumer only coarsens its own
	// updates and never blocks the simulation.
	prog     hmcsim.Progress
	watchers map[chan JobProgress]struct{}
}

// JobProgress is one event on the GET /v1/jobs/{id}/progress stream.
type JobProgress struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Done / Total count finished and scheduled sweep points.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Events and SimTimePs measure simulation headway: engine events
	// retired and simulated picoseconds advanced, summed across the
	// job's engines.
	Events    uint64  `json:"events"`
	SimTimePs int64   `json:"simTimePs"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// progressLocked snapshots the stream event for the current state.
func (j *Job) progressLocked() JobProgress {
	p := JobProgress{
		ID:        j.id,
		State:     j.state,
		Done:      j.prog.Done,
		Total:     j.prog.Total,
		Events:    j.prog.Events,
		SimTimePs: j.prog.SimTimePs,
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	p.ElapsedMs = float64(end.Sub(j.submitted).Microseconds()) / 1000
	return p
}

// setProgress records a live snapshot and fans it out to watchers.
func (j *Job) setProgress(p hmcsim.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return // the terminal event has already been broadcast
	}
	j.prog = p
	j.notifyLocked()
}

// notifyLocked delivers the current progress event to every watcher,
// replacing any undelivered previous event (latest-value semantics).
func (j *Job) notifyLocked() {
	if len(j.watchers) == 0 {
		return
	}
	p := j.progressLocked()
	for ch := range j.watchers {
		select {
		case ch <- p:
		default:
			select {
			case <-ch: // drop the stale event
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
}

// watch subscribes to the job's progress stream. The returned channel
// immediately carries the current snapshot (for terminal jobs, the
// terminal event), so a late subscriber always observes at least one
// event. stop unsubscribes; the channel is never closed.
func (j *Job) watch() (ch chan JobProgress, stop func()) {
	ch = make(chan JobProgress, 1)
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = map[chan JobProgress]struct{}{}
	}
	j.watchers[ch] = struct{}{}
	ch <- j.progressLocked()
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.watchers, ch)
		j.mu.Unlock()
	}
}

// JobView is the job's wire representation.
type JobView struct {
	ID    string      `json:"id"`
	State State       `json:"state"`
	Spec  hmcsim.Spec `json:"spec"`
	// Key is the spec's content address — the cache key.
	Key string `json:"key"`
	// Cached marks results served from the cache rather than computed
	// by this job.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// ErrorCode is the machine-readable cause for failures clients must
	// classify (currently only queue_full, from the coalescing fallback
	// losing its re-enqueue); prose in Error is for humans.
	ErrorCode string          `json:"errorCode,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Text      string          `json:"text,omitempty"`
	// ElapsedMs is submission-to-terminal wall time; ~0 for cache hits.
	ElapsedMs float64 `json:"elapsedMs,omitempty"`
}

// Decode unpacks a terminal view's result into the public Result type,
// restoring the pre-rendered text that Result excludes from its own
// JSON. It errors on non-done views, carrying the job's error message
// for failed ones.
func (v JobView) Decode() (hmcsim.Result, error) {
	switch v.State {
	case StateDone:
	case StateFailed:
		return hmcsim.Result{}, fmt.Errorf("job %s failed: %s", v.ID, v.Error)
	default:
		return hmcsim.Result{}, fmt.Errorf("job %s is %s, not done", v.ID, v.State)
	}
	var res hmcsim.Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return hmcsim.Result{}, fmt.Errorf("decode job %s result: %w", v.ID, err)
	}
	res.Text = v.Text
	return res, nil
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		State:     j.state,
		Spec:      j.spec,
		Key:       j.key,
		Cached:    j.cached,
		Error:     j.err,
		ErrorCode: j.errCode,
		Result:    j.result,
		Text:      j.text,
	}
	if !j.finished.IsZero() {
		v.ElapsedMs = float64(j.finished.Sub(j.submitted).Microseconds()) / 1000
	}
	return v
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finishedAt returns when the job went terminal (zero while active).
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// startRunning moves queued → running on the given pool worker; it
// fails when the job was canceled (or its context expired) while
// waiting in the queue.
func (j *Job) startRunning(worker int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	if j.ctx.Err() != nil {
		j.finishLocked(StateCanceled)
		return false
	}
	j.state = StateRunning
	j.worker = worker
	j.marks.runStart = time.Now()
	return true
}

// finish moves the job to a terminal state; later calls are no-ops.
func (j *Job) finish(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(s)
}

func (j *Job) finishLocked(s State) {
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.finished = time.Now()
	j.cancel() // release the context's resources
	close(j.done)
	j.notifyLocked() // terminal progress event, never dropped by new sends
	if j.record != nil {
		j.record(j.flightRecordLocked())
	}
}

// flightRecordLocked assembles the job's flight record from its span
// marks; the Slow flag is stamped by the recorder.
func (j *Job) flightRecordLocked() FlightRecord {
	r := FlightRecord{
		ID:         j.id,
		Exp:        j.spec.Exp,
		Key:        j.key,
		TraceID:    j.traceID,
		State:      j.state,
		Cached:     j.cached,
		Worker:     j.worker,
		Error:      j.err,
		TotalMs:    msBetween(j.marks.received, j.finished),
		FinishedAt: j.finished,
	}
	m := &j.marks
	if !m.runStart.IsZero() {
		r.QueueMs = msBetween(m.queued, m.runStart)
		end := m.runEnd
		if end.IsZero() {
			end = j.finished
		}
		r.RunMs = msBetween(m.runStart, end)
	}
	return r
}

// complete records a successful outcome. cached marks results served
// from the cache rather than computed by this job.
func (j *Job) complete(o outcome, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.result = o.Result
	j.text = o.Text
	j.cached = cached
	j.finishLocked(StateDone)
}

// fail records an error outcome.
func (j *Job) fail(msg string) { j.failCode(msg, "") }

// failCode records an error outcome with a machine-readable cause.
func (j *Job) failCode(msg, code string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.err = msg
	j.errCode = code
	j.finishLocked(StateFailed)
}

// Cancel requests cancellation: queued jobs flip to canceled
// immediately, running jobs stop at their next sweep point, terminal
// jobs are unaffected.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.finishLocked(StateCanceled)
	}
}
