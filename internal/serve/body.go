package serve

// Response bodies are encoded into pooled buffers and written with one
// Write. Hits and misses share the path: docs/ARCHITECTURE.md, flexerd.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"sync"

	"github.com/flexer-sched/flexer/internal/search"
)

var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bodyBufs.Get().(*bytes.Buffer) }

// putBuf recycles b, unless a full-timeline body grew it to megabytes.
func putBuf(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		b.Reset()
		bodyBufs.Put(b)
	}
}

// encodeJSON returns v as the indented JSON every endpoint answers in,
// in a buffer from getBuf: the one encoder of response bodies. Like an
// Encoder with SetIndent it indents in a second step, but into a pooled
// buffer.
func encodeJSON(v any) *bytes.Buffer {
	buf, compact := getBuf(), getBuf()
	_ = json.NewEncoder(compact).Encode(v) // response types always encode
	_ = json.Indent(buf, compact.Bytes(), "", "  ")
	putBuf(compact)
	return buf
}

// writeJSON writes one JSON response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encodeJSON(v)
	writeBody(w, code, buf.Bytes())
	putBuf(buf)
}

// writeBody writes an encoded JSON body with the given status.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_, _ = w.Write(body) // an error means the client went away
}

// layerEnvelope is a LayerResponse's per-request fields, names the same.
type layerEnvelope struct {
	Layer           string  `json:"layer"`
	Arch            string  `json:"arch"`
	ElapsedMS       float64 `json:"elapsed_ms"`
	ServedBy        string  `json:"served_by,omitempty"`
	DegradedRouting bool    `json:"degraded_routing,omitempty"`
}

// layerBody returns lr's response in a buffer from getBuf, byte for byte
// what encodeJSON makes of its LayerResponse. The summary shape is
// assembled: the lines that name nothing are encoded once, kept with lr's
// cache entry, and each request encodes its names and envelope around
// them. Full timelines run to megabytes: encoded per request.
func layerBody(lr *search.LayerResult, archName string, full bool, elapsedMS float64, rt routeInfo) *bytes.Buffer {
	if full {
		resp := buildLayerResponse(lr, archName, true, elapsedMS)
		resp.ServedBy, resp.DegradedRouting = rt.servedBy, rt.degraded
		return encodeJSON(&resp)
	}
	fixed := lr.Memo(func() []byte {
		resp := buildLayerResponse(lr, archName, false, 0)
		b := encodeJSON(&resp)
		defer putBuf(b)
		return bytes.Clone(b.Bytes()[line(b.Bytes(), "\n  \"candidates\":"):line(b.Bytes(), "\n  \"elapsed_ms\":")])
	})
	env := encodeJSON(&layerEnvelope{lr.Layer.Name, archName, elapsedMS, rt.servedBy, rt.degraded})
	defer putBuf(env)
	buf, i := getBuf(), line(env.Bytes(), "\n  \"elapsed_ms\":")
	buf.Write(env.Bytes()[:i])
	buf.Write(fixed)
	buf.Write(env.Bytes()[i:])
	return buf
}

// networkEnvelope is a NetworkResponse's per-request fields, names the
// same. The network name is the key's, but it opens the body.
type networkEnvelope struct {
	Network             string  `json:"network"`
	Arch                string  `json:"arch"`
	ElapsedMS           float64 `json:"elapsed_ms"`
	DistinctLayerShapes int     `json:"distinct_layer_shapes"`
	ServedBy            string  `json:"served_by,omitempty"`
	DegradedRouting     bool    `json:"degraded_routing,omitempty"`
}

// memoSep separates a network memo's two runs of lines. encoding/json
// escapes every control character, so no body holds a raw NUL.
const memoSep = 0

// networkMemo returns what a network body holds besides its envelope,
// for the cache to keep under the request's NetworkKey: the lines from
// "layers" up to "elapsed_ms", memoSep, then what follows the
// distinct_layer_shapes value up to the closing brace (the fusion
// pass's fields, with the comma that joins them; nothing when
// layerwise).
func networkMemo(nr *search.NetworkResult) []byte {
	resp := buildNetworkResponse(nr, 0)
	b := encodeJSON(&resp)
	defer putBuf(b)
	body := b.Bytes()
	head := body[line(body, "\n  \"layers\":"):line(body, "\n  \"elapsed_ms\":")]
	tail := body[afterDistinct(body) : len(body)-len("\n}\n")]
	return slices.Concat(head, []byte{memoSep}, tail)
}

// networkBody returns a network response in a buffer from getBuf, byte
// for byte what encodeJSON makes of its NetworkResponse: the envelope
// encoded per request with memo's two runs spliced in. A miss and a hit
// alike answer through it.
func networkBody(memo []byte, env networkEnvelope) *bytes.Buffer {
	e := encodeJSON(&env)
	defer putBuf(e)
	sep := bytes.IndexByte(memo, memoSep)
	i, j := line(e.Bytes(), "\n  \"elapsed_ms\":"), afterDistinct(e.Bytes())
	buf := getBuf()
	buf.Write(e.Bytes()[:i])
	buf.Write(memo[:sep])
	buf.Write(e.Bytes()[i:j])
	buf.Write(memo[sep+1:])
	buf.Write(e.Bytes()[j:])
	return buf
}

// line is where a top-level field's line of an encodeJSON body starts,
// given it with the newline and indent before it: no JSON string holds
// a raw newline.
func line(body []byte, field string) int { return bytes.Index(body, []byte(field)) + 1 }

// afterDistinct is where a network body's distinct_layer_shapes value
// ends: before the comma or newline that closes its line.
func afterDistinct(body []byte) int {
	i := line(body, "\n  \"distinct_layer_shapes\":")
	return i + bytes.IndexAny(body[i:], ",\n")
}
