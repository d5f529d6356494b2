package node

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"calloc/internal/core"
	"calloc/internal/localizer"
	"calloc/internal/serve"
	"calloc/internal/train"
	"calloc/internal/wire"
)

// handleLocalize is the single-fingerprint hot path. Everything it touches —
// body buffer, decode target, response buffer — comes from one pooled
// wireBuf, and the body decodes through wire.DecodeQuery, so the steady-state
// wire cost is net/http's own request parsing and nothing else. The engine
// copies the RSS row into its own request buffer before returning, so
// recycling the wireBuf on return is safe.
func (n *Node) handleLocalize(w http.ResponseWriter, r *http.Request) {
	b := bufPool.Get().(*wireBuf)
	defer putWireBuf(b)
	if !n.readWireBody(w, r, b, maxLocalizeBody) {
		return
	}
	req := &b.req
	punted, err := wire.DecodeQuery(b.body, req)
	if punted {
		n.wire.fastPunts.Add(1)
	}
	if err != nil {
		n.wire.clientErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	backend := n.deflt
	if len(req.Backend) > 0 {
		backend = internBackend(req.Backend)
	}
	var res serve.Result
	if req.Floor.Set {
		key := localizer.Key{Building: n.building, Floor: req.Floor.V, Backend: backend}
		res, err = n.engine.Localize(r.Context(), key, req.RSS)
	} else {
		res, err = n.engine.Route(r.Context(), n.building, backend, req.RSS)
	}
	if err != nil {
		n.wireError(w, err)
		return
	}
	b.out = appendResult(b.out[:0], res)
	n.writeWire(w, b.out)
}

// handleLocalizeBatch answers N fingerprints in one exchange. Rows are
// grouped by their resolved {backend, floor-or-routed} target so each group
// enters the engine as ONE pre-formed batch (one lane slot, one worker
// wakeup, one model call when it fits MaxBatch); results come back in
// request order with per-row errors, so one bad row never fails its batch.
// The grouping scratch lives on the pooled wireBuf with everything else; the
// engine copies every row before it returns.
func (n *Node) handleLocalizeBatch(w http.ResponseWriter, r *http.Request) {
	b := bufPool.Get().(*wireBuf)
	defer putWireBuf(b)
	if !n.readWireBody(w, r, b, maxBatchBody) {
		return
	}
	req := &b.batch
	punted, err := wire.DecodeBatch(b.body, req)
	if punted {
		n.wire.fastPunts.Add(1)
	}
	if err != nil {
		n.wire.clientErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	qs := req.Queries
	if len(qs) == 0 {
		b.out = append(b.out[:0], `{"results":[]}`...)
		n.writeWire(w, b.out)
		return
	}
	n.wire.batches.Add(1)
	n.wire.batchRows.Add(int64(len(qs)))

	// Resolve each row's target. Rows with an explicit floor dispatch via
	// LocalizeBatch; floor-less rows go through the batched floor classifier
	// in RouteBatch.
	deflt := n.deflt
	if len(req.Backend) > 0 {
		deflt = internBackend(req.Backend)
	}
	clear(b.groupOf)
	b.groups = b.groups[:0]
	for i := range qs {
		k := gkey{backend: deflt}
		if len(qs[i].Backend) > 0 {
			k.backend = internBackend(qs[i].Backend)
		}
		if qs[i].Floor.Set {
			k.floor = qs[i].Floor.V
		} else {
			k.routed = true
		}
		gi, ok := b.groupOf[k]
		if !ok {
			// A new group takes the next slot and the capacity an earlier
			// request left in it.
			gi = len(b.groups)
			b.groupOf[k] = gi
			b.groups = slices.Grow(b.groups, 1)[:gi+1]
			b.groups[gi] = batchGroup{key: k, idx: b.groups[gi].idx[:0], rows: b.groups[gi].rows[:0]}
		}
		g := &b.groups[gi]
		g.idx = append(g.idx, i)
		g.rows = append(g.rows, qs[i].RSS)
	}
	// Every row is in exactly one group, so every slot is overwritten.
	b.results = slices.Grow(b.results[:0], len(qs))[:len(qs)]
	if len(b.groups) == 1 {
		n.runGroup(r.Context(), &b.groups[0], b.results)
	} else {
		var wg sync.WaitGroup
		for gi := range b.groups {
			wg.Add(1)
			go func(g *batchGroup) {
				defer wg.Done()
				n.runGroup(r.Context(), g, b.results)
			}(&b.groups[gi])
		}
		wg.Wait()
	}

	out := append(b.out[:0], `{"results":[`...)
	for i := range b.results {
		if i > 0 {
			out = append(out, ',')
		}
		if err := b.results[i].Err; err != nil {
			out = appendRowError(out, err)
		} else {
			out = appendResult(out, b.results[i])
		}
	}
	b.out = append(out, ']', '}')
	n.writeWire(w, b.out)
}

// runGroup sends one group's rows through the engine and files the answers
// under the rows' request positions. A group-level failure (unknown key,
// engine closed, context done) fails only this group's rows.
func (n *Node) runGroup(ctx context.Context, g *batchGroup, results []serve.Result) {
	var got []serve.Result
	var err error
	if g.key.routed {
		got, err = n.engine.RouteBatch(ctx, n.building, g.key.backend, g.rows)
	} else {
		key := localizer.Key{Building: n.building, Floor: g.key.floor, Backend: g.key.backend}
		got, err = n.engine.LocalizeBatch(ctx, key, g.rows)
	}
	for j, i := range g.idx {
		if err != nil {
			results[i] = serve.Result{Err: err}
		} else {
			results[i] = got[j]
		}
	}
}

// handleFeedback accepts one labelled online fingerprint — a client that
// learned its true reference point (map tap, QR checkpoint, fused dead
// reckoning) reports it here — and queues it for the floor's background
// fine-tune loop. Accumulation is O(1) on the request path; training,
// validation, and the eventual hot-swap all happen on the trainer goroutine.
// The trainer copies the RSS row, so the pooled buffer is safe to recycle.
func (n *Node) handleFeedback(w http.ResponseWriter, r *http.Request) {
	b := bufPool.Get().(*wireBuf)
	defer putWireBuf(b)
	if !n.readWireBody(w, r, b, maxLocalizeBody) {
		return
	}
	req := &b.fb
	req.reset()
	if err := json.Unmarshal(b.body, req); err != nil {
		n.wire.clientErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tr, ok := n.trainers[req.Floor]
	if !ok {
		n.wire.clientErrors.Add(1)
		http.Error(w, fmt.Sprintf("no trainer for floor %d (calloc backend with trainer enabled required)", req.Floor),
			http.StatusNotFound)
		return
	}
	if err := tr.AddFeedback(req.RSS, req.RP); err != nil {
		n.wire.clientErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := append(b.out[:0], `{"pending":`...)
	out = strconv.AppendInt(out, int64(tr.Pending()), 10)
	b.out = append(out, '}')
	n.writeWire(w, b.out)
}

func (n *Node) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Backend string `json:"backend"`
		Floor   int    `json:"floor"`
		Weights string `json:"weights"` // base64 of calloc-train output
		// Stage makes the push gated: the floor's trainer scores the model
		// against the incumbent on its holdout, and only a win goes live.
		Stage bool `json:"stage"`
	}
	if !n.decodeJSONBounded(w, r, maxSwapBody, &req) {
		return
	}
	if req.Backend != "" && req.Backend != "calloc" {
		http.Error(w, "swap supports only the calloc backend (weight pushes)", http.StatusBadRequest)
		return
	}
	ds, ok := n.datasets[req.Floor]
	if !ok {
		http.Error(w, fmt.Sprintf("floor %d not served by this node (floors %v)", req.Floor, n.Floors()),
			http.StatusNotFound)
		return
	}
	blob, err := base64.StdEncoding.DecodeString(req.Weights)
	if err != nil {
		http.Error(w, "weights must be base64: "+err.Error(), http.StatusBadRequest)
		return
	}
	loc, _, err := buildCALLOC(ds, blob, 0, n.prec, n.cfg.Logf)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := localizer.Key{Building: n.building, Floor: req.Floor, Backend: "calloc"}
	if _, ok := n.reg.Get(key); !ok {
		// Floor exists but the calloc backend is not served.
		http.Error(w, fmt.Sprintf("%s not registered", key), http.StatusNotFound)
		return
	}
	if req.Stage {
		n.offer(w, key, loc)
		return
	}
	version, err := n.reg.Swap(key, loc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n.cfg.Logf("node: swapped %s to version %d", key, version)
	n.writeJSON(w, map[string]uint64{"version": version})
}

// offer answers a gated push: the floor's trainer scores loc against the
// incumbent with the fine-tune round's holdout gate (Scores, MinDelta), and a
// win goes live through the same SwapIf and regret window as a winning
// round. The reply is 200 whether or not the model went live; a floor with
// no trainer to gate the push is a 409, as is a version pushed while the
// model was being scored.
func (n *Node) offer(w http.ResponseWriter, key localizer.Key, loc localizer.Localizer) {
	tr, ok := n.trainers[key.Floor]
	if !ok {
		http.Error(w, fmt.Sprintf("%s runs no trainer to gate a staged push", key), http.StatusConflict)
		return
	}
	res, err := tr.Offer(localizer.Unwrap(loc).(*core.Model))
	switch {
	case errors.Is(err, localizer.ErrVersionConflict):
		http.Error(w, err.Error(), http.StatusConflict)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n.cfg.Logf("node: gated push for %s: candidate %.4f vs incumbent %.4f, swapped=%v (v%d)",
		key, res.Candidate.Total(), res.Incumbent.Total(), res.Swapped, res.Version)
	n.writeJSON(w, struct {
		Swapped   bool         `json:"swapped"`
		Version   uint64       `json:"version"`
		Candidate train.Scores `json:"candidate"`
		Incumbent train.Scores `json:"incumbent"`
	}{res.Swapped, res.Version, res.Candidate, res.Incumbent})
}

// decodeJSONBounded decodes a control-plane body behind http.MaxBytesReader:
// 413 on overflow, 400 on malformed JSON. The generic decoder is fine here —
// swaps are rare — but even rare endpoints must not buffer an unbounded
// body.
func (n *Node) decodeJSONBounded(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		n.wire.overflow.Add(1)
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
	return false
}

// writeJSON is the control-plane response writer. Encode can fail (client
// gone, marshal error on a live struct); dropping that on the floor hides
// wire problems from the operator, so it is logged.
func (n *Node) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		n.cfg.Logf("node: response encode failed: %v", err)
	}
}
