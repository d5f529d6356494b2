package node

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"unsafe"

	"calloc/internal/serve"
	"calloc/internal/wire"
)

// TestLocalizeStatusMapping: engine errors keep their PR-4 statuses; context
// errors map to 499/504 instead of the generic 400 they used to fall into.
func TestLocalizeStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{serve.ErrClosed, http.StatusServiceUnavailable},
		{serve.ErrUnknownModel, http.StatusNotFound},
		{serve.ErrMisroute, http.StatusInternalServerError},
		{context.Canceled, statusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{errors.New("fingerprint has 3 features"), http.StatusBadRequest},
	} {
		if got := localizeStatus(tc.err); got != tc.want {
			t.Errorf("localizeStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestWireErrorAccounting: context failures stay OUT of the client-error
// counter — a disconnect is not a malformed request.
func TestWireErrorAccounting(t *testing.T) {
	n := &Node{cfg: Config{Logf: func(string, ...any) {}}}
	for _, err := range []error{context.Canceled, context.DeadlineExceeded, serve.ErrUnknownModel, serve.ErrMisroute} {
		n.wireError(httptest.NewRecorder(), err)
	}
	st := n.WireStats()
	if st.Canceled != 1 || st.DeadlineExceeded != 1 || st.ClientErrors != 1 {
		t.Fatalf("wire stats = %+v, want canceled=1 deadline=1 client_errors=1", st)
	}
}

// The canonical spellings must intern to the registry's strings so a valid
// request never allocates for its backend name; an unknown name comes back as
// a copy, not as a view into the (pooled) body it was decoded from.
func TestInternBackend(t *testing.T) {
	for _, name := range KnownBackends {
		got := internBackend(wire.Str(name))
		if got != name || unsafe.StringData(got) != unsafe.StringData(name) {
			t.Fatalf("internBackend(%q) = %q, not the registry's string", name, got)
		}
	}
	body := []byte("svm")
	got := internBackend(body)
	body[0] = 'x'
	if got != "svm" {
		t.Fatalf("internBackend(svm) = %q after the body was reused", got)
	}
}

// TestWireBufDropsOversized: one maxBatchBody-sized request must not leave
// its body buffer, or the rows decoded from it, pinned in the pool entry it
// rode on; an ordinary batch's buffers are kept.
func TestWireBufDropsOversized(t *testing.T) {
	fill := func(b *wireBuf, rows, width, body int) {
		b.body = make([]byte, 0, body)
		b.batch.Queries = make([]wire.Query, rows)
		for i := range b.batch.Queries {
			b.batch.Queries[i].RSS = make([]float64, width)
		}
		b.groups = make([]batchGroup, 1)
		b.results = make([]serve.Result, rows)
	}

	var b wireBuf
	fill(&b, 256, 520, 900<<10) // the router's largest coalesced window
	putWireBuf(&b)
	if cap(b.body) == 0 || cap(b.batch.Queries) != 256 || b.groups == nil || b.results == nil {
		t.Fatalf("an ordinary batch's buffers were dropped: body %d, rows %d", cap(b.body), cap(b.batch.Queries))
	}

	for _, tc := range []struct {
		name              string
		rows, width, body int
	}{
		{"few wide rows", 4, 1 << 20, 32 << 20},
		{"many empty rows", 1 << 20, 0, 4 << 20},
	} {
		var b wireBuf
		fill(&b, tc.rows, tc.width, tc.body)
		putWireBuf(&b)
		if b.body != nil || b.batch.Queries != nil || b.groups != nil || b.results != nil {
			t.Fatalf("%s: pool entry keeps body %d B, %d rows, %d results", tc.name,
				cap(b.body), cap(b.batch.Queries), cap(b.results))
		}
	}
}

// TestAppendResultShape: the hand-built emit matches what a JSON decoder
// (and therefore every existing client) expects from /v1/localize.
func TestAppendResultShape(t *testing.T) {
	out := appendResult(nil, serve.Result{Class: 17, Floor: 2, Backend: `we"ird`, Version: 9})
	var got struct {
		RP      int    `json:"rp"`
		Floor   int    `json:"floor"`
		Backend string `json:"backend"`
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("emit produced invalid JSON %s: %v", out, err)
	}
	if got.RP != 17 || got.Floor != 2 || got.Backend != `we"ird` || got.Version != 9 {
		t.Fatalf("round trip = %+v from %s", got, out)
	}

	rowErr := appendRowError(nil, serve.ErrMisroute)
	var ge struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(rowErr, &ge); err != nil {
		t.Fatal(err)
	}
	if ge.Status != http.StatusInternalServerError || ge.Error == "" {
		t.Fatalf("row error emit = %+v", ge)
	}
}
