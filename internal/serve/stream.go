package serve

// Streaming progress for long searches. POST /v1/schedule/layer and
// /v1/schedule/network accept ?stream=1, switching the response to
// NDJSON (application/x-ndjson): one JSON object per line, zero or
// more "progress" events followed by exactly one terminal event —
// "result" carrying the same payload as the non-streaming endpoint, or
// "error" carrying the status the non-streaming endpoint would have
// returned. The stream is flushed after every event, so clients
// watching a default-budget search see candidates-evaluated and
// per-layer completion in near real time instead of minutes of
// silence. The wire format is documented in docs/API.md.

import (
	"encoding/json"
	"expvar"
	"net/http"
	"time"

	"github.com/flexer-sched/flexer/internal/search"
)

// StreamEvent is one NDJSON line of a ?stream=1 response. Event is
// "progress", "result" or "error"; the remaining fields are populated
// according to that discriminator (progress counters, exactly one of
// LayerResult/NetworkResult, or the error fields).
type StreamEvent struct {
	Event string `json:"event"`

	// Progress fields (Event == "progress"). Candidate counters track
	// tilings within Layer; the layer counters track whole-network
	// completion and are zero for single-layer streams.
	Layer           string  `json:"layer,omitempty"`
	CandidatesDone  int     `json:"candidates_done,omitempty"`
	CandidatesTotal int     `json:"candidates_total,omitempty"`
	BestScore       float64 `json:"best_score,omitempty"`
	LayerDone       bool    `json:"layer_done,omitempty"`
	LayersDone      int     `json:"layers_done,omitempty"`
	LayersTotal     int     `json:"layers_total,omitempty"`
	CacheHit        bool    `json:"cache_hit,omitempty"`
	Coalesced       bool    `json:"coalesced,omitempty"`
	ElapsedMS       float64 `json:"elapsed_ms,omitempty"`
	// Preempted marks a progress event reporting that the search was
	// preempted by a higher-priority request and re-enqueued; the
	// candidate counters restart from zero when it resumes.
	Preempted bool `json:"preempted,omitempty"`

	// Terminal payload (Event == "result"): exactly one is set,
	// matching the endpoint.
	LayerResult   *LayerResponse   `json:"layer_result,omitempty"`
	NetworkResult *NetworkResponse `json:"network_result,omitempty"`

	// Error fields (Event == "error"). Status is the HTTP status the
	// non-streaming endpoint would have returned.
	Error             string           `json:"error,omitempty"`
	Status            int              `json:"status,omitempty"`
	RetryAfterSeconds int              `json:"retry_after_seconds,omitempty"`
	State             *ServerStateJSON `json:"state,omitempty"`
}

// wantStream reports whether the request opted into NDJSON progress
// streaming via ?stream=1 (or stream=true).
func wantStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// errorEvent wraps a classified failure as a terminal "error" event.
func errorEvent(status int, body ErrorResponse) StreamEvent {
	return StreamEvent{
		Event:             "error",
		Status:            status,
		Error:             body.Error,
		RetryAfterSeconds: body.RetryAfterSeconds,
		State:             body.State,
	}
}

// streamEventBuffer bounds the progress-event queue between the search
// goroutines and the response writer. Events beyond it are dropped —
// progress is advisory and must never block the search — but the
// terminal result always goes out. The queue holds pointers, so a hit's
// one-event stream does not pay for 256 events.
const streamEventBuffer = 256

// streamSink is the NDJSON half of a ?stream=1 request: the search
// goroutines queue progress on events and the request's own goroutine
// writes them out, one JSON object per line, flushed after every
// event. The zero streamSink is a unary request's sink: its nil queue
// is never ready, it writes nothing and never commits.
type streamSink struct {
	w         http.ResponseWriter
	enc       *json.Encoder
	events    chan *StreamEvent
	written   *expvar.Int // progress_events_total
	committed bool
}

// progressFunc returns the search callback that queues progress on the
// sink, dropping events when the buffer is full.
func (k *streamSink) progressFunc(start time.Time) search.ProgressFunc {
	events := k.events
	return func(ev search.ProgressEvent) {
		sev := streamProgress(ev, msSince(start))
		select {
		case events <- &sev:
		default:
		}
	}
}

// commit switches the response to 200 + NDJSON, once: from here on a
// failure can only be reported as a terminal event.
func (k *streamSink) commit() {
	if k.w == nil || k.committed {
		return
	}
	k.committed = true
	k.w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	k.w.Header().Set("X-Content-Type-Options", "nosniff")
	k.w.WriteHeader(http.StatusOK)
}

// emit writes one event and flushes it.
func (k *streamSink) emit(ev StreamEvent) {
	if k.w == nil {
		return
	}
	if ev.Event == "progress" {
		k.written.Add(1)
	}
	// A write error means the client went away; the request context
	// cancels the search, so just keep going until it unwinds.
	_ = k.enc.Encode(ev)
	_ = http.NewResponseController(k.w).Flush()
}

// result writes the terminal "result" event: open, then the unary body compacted.
func (k *streamSink) result(open string, body []byte) {
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(open)
	_ = json.Compact(buf, body) // body is encodeJSON's output: valid
	buf.WriteString("}\n")
	_, _ = k.w.Write(buf.Bytes()) // an error means the client went away, as in emit
	_ = http.NewResponseController(k.w).Flush()
}

// drain writes out every event already queued.
func (k *streamSink) drain() {
	for len(k.events) > 0 { // this goroutine is the only receiver
		k.emit(*<-k.events)
	}
}

// streamProgress converts a search progress event to its wire form.
func streamProgress(ev search.ProgressEvent, elapsedMS float64) StreamEvent {
	return StreamEvent{
		Event:           "progress",
		Layer:           ev.Layer,
		CandidatesDone:  ev.CandidatesDone,
		CandidatesTotal: ev.CandidatesTotal,
		BestScore:       ev.BestScore,
		LayerDone:       ev.LayerDone,
		LayersDone:      ev.LayersDone,
		LayersTotal:     ev.LayersTotal,
		CacheHit:        ev.CacheHit,
		Coalesced:       ev.Coalesced,
		ElapsedMS:       elapsedMS,
	}
}
