// Package wire holds the small, allocation-conscious JSON/HTTP helpers the
// serving wire path (internal/node handlers, internal/cluster router) shares:
// pooled body reading behind http.MaxBytesReader, an option-int that decodes
// without the per-request pointer allocation of *int fields, append-style
// JSON string emission for hand-built responses, and (decode.go) the one
// decoder of every RSS-carrying request body.
//
// The helpers exist because the high-rate endpoints decode and encode the
// same few fixed schemas millions of times: the generic
// json.NewDecoder/NewEncoder path allocates a decoder, its internal buffer,
// and boxed map values per request, which dominated the serving wire's
// allocations once the compute core hit zero. Everything here reuses
// caller-owned buffers instead (BenchmarkWirePath, scripts/allocs.json).
package wire

import (
	"errors"
	"io"
	"net/http"
)

// OptInt is an optional JSON integer field that decodes without allocating —
// the drop-in replacement for *int request fields on pooled structs (a
// pointer field costs one allocation per request in which it appears, and a
// stale pointer on a pooled struct is an aliasing hazard). Absent fields and
// JSON null leave Set false.
type OptInt struct {
	Set bool
	V   int
}

// UnmarshalJSON implements json.Unmarshaler without touching the heap.
//
//calloc:noalloc
func (o *OptInt) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*o = OptInt{}
		return nil
	}
	v, ok := parseInt(b)
	if !ok {
		return errors.New("wire: not an integer that fits an int: " + string(b)) //calloc:allow malformed-input error path, off the hot path
	}
	*o = OptInt{Set: true, V: v}
	return nil
}

// ReadAll reads r to EOF into dst (appending from dst[:0]'s capacity) and
// returns the filled buffer — io.ReadAll with a caller-pooled destination.
//
//calloc:noalloc
func ReadAll(dst []byte, r io.Reader) ([]byte, error) {
	dst = dst[:0]
	if cap(dst) == 0 {
		dst = make([]byte, 0, 4096) //calloc:allow first-use growth; the caller pools dst across requests
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReadBody reads the request body into dst bounded by limit. On failure it
// writes the error response itself — 413 on overflow (with Connection: close,
// per MaxBytesReader convention), 400 otherwise — and returns ok == false.
// overflow reports which failure it was, for callers that account 413s
// separately.
//
// When the request declares a Content-Length the bound is enforced on the
// declared size directly — an oversized body is rejected before a byte is
// read, and an in-bounds one is read without the http.MaxBytesReader wrapper
// (the server already terminates the body at Content-Length), saving the
// wrapper's per-request allocations on the hot path. Only chunked bodies pay
// for the guard reader.
func ReadBody(w http.ResponseWriter, r *http.Request, dst []byte, limit int64) (body []byte, overflow, ok bool) {
	src := r.Body
	if r.ContentLength > limit {
		w.Header().Set("Connection", "close")
		http.Error(w, "http: request body too large", http.StatusRequestEntityTooLarge)
		return dst[:0], true, false
	} else if r.ContentLength < 0 {
		src = http.MaxBytesReader(w, r.Body, limit)
	}
	body, err := ReadAll(dst, src)
	if err == nil {
		return body, false, true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return body, true, false
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
	return body, false, false
}

const hexDigits = "0123456789abcdef"

// AppendString appends s to dst as a JSON string literal, escaping exactly
// what RFC 8259 requires (quote, backslash, control characters). Error
// messages and backend names are ASCII in practice, so the fast path is a
// straight copy; non-ASCII bytes pass through untouched (Go strings are
// UTF-8, which JSON accepts verbatim).
//
//calloc:noalloc
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
