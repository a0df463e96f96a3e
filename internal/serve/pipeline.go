package serve

// The schedule-request pipeline: both schedule endpoints, streamed or
// not, are one path. Layer versus network is the contents of a job;
// unary versus streamed is whether the run has a sink for progress.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"github.com/flexer-sched/flexer/internal/search"
	"github.com/flexer-sched/flexer/internal/serve/admission"
)

// job describes one schedule request to the pipeline: everything that
// differs between a layer and a network request.
type job struct {
	// key is the cache fingerprint the cluster homes the request on.
	key string
	// body is the decoded request, re-marshalled when it is forwarded.
	body      any
	timeoutMS int64
	// adm is the admission class. Its Tenant is the body's tenant field;
	// serveJob falls back to the header and the server default.
	adm admission.Request
	// hist records the latency of a successful request.
	hist *latencyHist
	// result opens a streamed request's terminal event up to the body.
	result string
	// lookup answers the request from a completed cache entry, before
	// admission and on the request's own goroutine, with the body run
	// would return; (nil, nil) means the request must search. nil when
	// the request always searches.
	lookup runFunc
	// run performs the search on a held worker slot and returns the
	// unary endpoint's body in a buffer from getBuf.
	run runFunc
}

// runFunc is a job's lookup or run.
type runFunc func(context.Context, attempt) (*bytes.Buffer, error)

// attempt is what the pipeline hands each run of a job; a preempted job
// is run again with the same attempt.
type attempt struct {
	// start is when the request was admitted to the pipeline; elapsed_ms
	// counts from it, queue wait included.
	start    time.Time
	route    routeInfo
	progress search.ProgressFunc // nil on unary requests
}

// options returns o with the attempt's progress callback installed.
func (a attempt) options(o search.Options) search.Options {
	o.Progress = a.progress
	return o
}

// serveJob is the pipeline behind both schedule endpoints: let the
// handler's describe resolve the request into a job, route it to its
// home peer or keep it, answer it from the cache if it is a hit, else
// admit it under the request's deadline and run it, and encode the
// outcome as a JSON body or — with ?stream=1 — as NDJSON events.
//
// A failure before a hit is found or the first worker slot is granted
// (a malformed request, shed load, a deadline spent queueing) is a
// plain JSON error with its real HTTP status even on a streamed
// request; after it the stream has committed to 200 and a failure
// becomes the terminal "error" event.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, describe func() (job, error)) {
	j, err := describe()
	if err != nil {
		s.fail(w, err)
		return
	}
	rt, handled := s.routeSchedule(w, r, j.key, j.timeoutMS, j.body)
	if handled {
		return
	}
	a := attempt{start: time.Now(), route: rt}
	var sink streamSink
	if wantStream(r) {
		sink = streamSink{w: w, enc: json.NewEncoder(w), events: make(chan *StreamEvent, streamEventBuffer), written: s.metrics.progress}
		a.progress = sink.progressFunc(a.start)
	}
	body, err := s.lookup(r.Context(), j, a, &sink)
	if body == nil && err == nil {
		j.adm.Tenant = s.tenant(r, j.adm.Tenant)
		ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout(j.timeoutMS))
		defer cancel()
		body, err = s.execute(ctx, j, a, &sink)
	}
	if err == nil {
		j.hist.Observe(time.Since(a.start))
		defer putBuf(body)
	}
	switch {
	case err != nil && sink.committed:
		sink.emit(errorEvent(s.classify(err)))
	case err != nil:
		s.fail(w, err)
	case sink.w != nil:
		sink.result(j.result, body.Bytes())
	default:
		writeBody(w, http.StatusOK, body.Bytes())
	}
}

// lookup is the pipeline's lookup stage: it answers j through j.lookup
// when the cache holds its answer, taking no worker slot and starting
// no goroutine. (nil, nil) sends j on to execute. A hit commits a
// streamed request and writes the progress the lookup reported; so
// does a lookup that panicked, whose error then goes out as the event
// the same panic on a worker slot would have sent.
func (s *Server) lookup(ctx context.Context, j job, a attempt, sink *streamSink) (*bytes.Buffer, error) {
	if j.lookup == nil {
		return nil, nil
	}
	body, err := s.recovered(ctx, j.lookup, a)
	if body != nil || err != nil {
		sink.commit()
		sink.drain()
	}
	return body, err
}

// execute runs j on the worker pool until it finishes or ctx ends,
// re-enqueueing and restarting it when a higher-priority arrival
// preempts it, which cancels its grant's context. It returns promptly
// when ctx ends — even while the search is still winding down in the
// background, where it aborts at its next cancellation point and frees
// its slot. The sink commits on the first grant and relays
// progress meanwhile; a unary request's zero sink has a nil event
// queue, which is never selected, so it pays nothing for the
// streaming half.
func (s *Server) execute(ctx context.Context, j job, a attempt, sink *streamSink) (*bytes.Buffer, error) {
	done := make(chan searchOutcome, 1)
	for {
		g, err := s.acquire(ctx, j.adm)
		if err != nil {
			return nil, err
		}
		sink.commit()
		go s.runOnGrant(g, j.run, a, done)

		o := await(ctx, done, sink)
		// Flush progress that raced the outcome, so every buffered
		// event precedes the next milestone.
		sink.drain()
		// A run that finished wins over a preemption that raced it.
		if o.err == nil || !errors.Is(context.Cause(g.Context()), admission.ErrPreempted) {
			return o.body, o.err
		}
		if err := ctx.Err(); err != nil {
			// Preempted right as the deadline hit; report the deadline,
			// not the internal preemption.
			return nil, err
		}
		// Preempted: the partial incumbents are gone (the cache forgot
		// the cancelled entry), so tell a streaming client, re-enqueue
		// and recompute from scratch.
		s.metrics.preempted.Add(1)
		s.metrics.requeued.Add(1)
		sink.emit(StreamEvent{Event: "progress", Preempted: true, ElapsedMS: msSince(a.start)})
	}
}

// await relays the sink's progress events until the running attempt
// reports its outcome or ctx ends.
func await(ctx context.Context, done <-chan searchOutcome, sink *streamSink) searchOutcome {
	for {
		select {
		case ev := <-sink.events:
			sink.emit(*ev)
		case o := <-done:
			return o
		case <-ctx.Done():
			// A finished search can make both cases ready at once;
			// prefer its outcome over a spurious cancellation error.
			select {
			case o := <-done:
				return o
			default:
				return searchOutcome{err: ctx.Err()}
			}
		}
	}
}

// acquire takes one worker-pool slot from the tenant scheduler; the
// returned grant must be released exactly once. A shed request gets the
// scheduler's *admission.QueueFullError, a context that ends while
// queueing ctx.Err().
func (s *Server) acquire(ctx context.Context, adm admission.Request) (*admission.Grant, error) {
	g, err := s.admit.Acquire(ctx, adm)
	if err != nil {
		if errors.As(err, new(*admission.QueueFullError)) {
			s.metrics.shed.Add(1)
		}
		return nil, err
	}
	s.metrics.searching.Add(1)
	return g, nil
}

// searchOutcome carries a finished run across its result channel.
type searchOutcome struct {
	body *bytes.Buffer
	err  error
}

// runOnGrant runs one attempt to completion on a held grant, under the
// grant's context, so the outcome channel always receives exactly one
// value, and — panic or not — restores the searching gauge and releases
// the worker slot. This is the only place a slot is returned, so one
// panicking request can never shrink the pool.
func (s *Server) runOnGrant(g *admission.Grant, run runFunc, a attempt, out chan<- searchOutcome) {
	body, err := s.recovered(g.Context(), run, a)
	s.metrics.searching.Add(-1)
	g.Release()
	out <- searchOutcome{body, err}
}

// recovered calls f, converting a panic into an errSearchPanicked error:
// the request answers 500 and the server goes on.
func (s *Server) recovered(ctx context.Context, f runFunc, a attempt) (body *bytes.Buffer, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			s.log.Printf("panic in search: %v\n%s", r, debug.Stack())
			body, err = nil, fmt.Errorf("%w: %v", errSearchPanicked, r)
		}
	}()
	return f(ctx, a)
}

// classify is the error taxonomy of the schedule endpoints, shared by
// plain error responses and terminal "error" events: 400 for malformed
// requests, 429 for shed load (with the retry hint and the tenant's
// queue view), 500 for a panicking search, 504 for deadlines, 499 for
// cancellations, and 422 for well-formed requests the search cannot
// satisfy. Shed and timed-out responses carry the queue/cache state so
// clients can degrade gracefully.
func (s *Server) classify(err error) (int, ErrorResponse) {
	var bad badRequestError
	var full *admission.QueueFullError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest, ErrorResponse{Error: bad.Error()}
	case errors.As(err, &full):
		st := s.state()
		st.Tenant = tenantState(full)
		return http.StatusTooManyRequests, ErrorResponse{
			Error:             "server overloaded: schedule queue is full; retry after the advertised delay",
			RetryAfterSeconds: int(math.Ceil(s.retryAfter().Seconds())),
			State:             st,
		}
	case errors.Is(err, errSearchPanicked):
		return http.StatusInternalServerError, ErrorResponse{Error: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, ErrorResponse{
			Error: "search timed out; retry with a larger timeout_ms or budget=quick",
			State: s.state(),
		}
	case errors.Is(err, context.Canceled):
		// Client went away; 499 is nginx's convention for it.
		return 499, ErrorResponse{Error: "request cancelled"}
	default:
		return http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()}
	}
}

// fail writes err as a plain JSON error response; a retry hint also
// goes out as the Retry-After header.
func (s *Server) fail(w http.ResponseWriter, err error) {
	code, body := s.classify(err)
	if body.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSeconds))
	}
	writeJSON(w, code, body)
}
