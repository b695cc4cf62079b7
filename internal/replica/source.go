package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"wstrust/internal/registry"
)

// Source is the primary side of replication: three HTTP handlers mounted
// on a registry-backed server. Every read serves from the store's
// immutable copy-on-write views, so shipping frames never contends with
// the write path.
type Source struct {
	// Store is the registry being replicated.
	Store *registry.Store
	// Drain, when non-nil, severs every open stream when closed — wsxd's
	// graceful drain. A severed follower resumes from its last acked
	// sequence number on reconnect; nothing is lost.
	Drain <-chan struct{}
	// MaxBatch bounds the frames rendered per stream write (default 512).
	MaxBatch int
}

// Register mounts the replication endpoints on mux.
func (src *Source) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /replica/status", src.handleStatus)
	mux.HandleFunc("GET /replica/snapshot", src.handleSnapshot)
	mux.HandleFunc("GET /wal/stream", src.handleStream)
}

// setEpochHeaders stamps a response with the source's replication
// position, so even error responses tell the follower where the source
// stands.
func (src *Source) setEpochHeaders(w http.ResponseWriter) {
	w.Header().Set("X-Replica-Epoch", strconv.FormatUint(src.Store.Epoch(), 10))
	w.Header().Set("X-Replica-Seq", strconv.FormatUint(src.Store.LastSeq(), 10))
}

// handleStatus reports the source's epoch, horizon and mark history.
func (src *Source) handleStatus(w http.ResponseWriter, r *http.Request) {
	src.setEpochHeaders(w)
	w.Header().Set("Content-Type", "application/json")
	st := Status{
		Epoch:   src.Store.Epoch(),
		LastSeq: src.Store.LastSeq(),
		Records: src.Store.Len(),
		Marks:   src.Store.Marks(),
	}
	if err := json.NewEncoder(w).Encode(st); err != nil {
		// The response is already committed; nothing to do but note it.
		return
	}
}

// handleSnapshot transfers the full state as one checksummed snapshot
// document — the bootstrap path for an empty or diverged follower. The
// document is rendered from one consistent view; the follower verifies
// the body checksum before applying anything.
func (src *Source) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	src.setEpochHeaders(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, _, err := src.Store.WriteSnapshotTo(w); err != nil {
		// Mid-body failure: the connection is the error signal (the
		// follower's checksum verification rejects the partial document).
		return
	}
}

// handleStream is the WAL tailer: it streams committed frames with
// sequence numbers > from in wire format over a chunked response,
// flushing after every batch, and blocks on the store's commit broadcast
// when caught up — a long poll that ends only when the client goes away,
// the server drains, or the follower's cursor proves incompatible.
//
// Query parameters: from (cursor — last sequence the follower holds),
// fromEpoch (the epoch the follower's mark history assigns to that
// cursor), fence (the follower's own epoch). Responses:
//
//	403 — the follower is fenced ahead of this source (fence > epoch):
//	      a deposed primary must not feed a promoted follower.
//	409 — the cursor diverged: it is beyond this source's horizon, below
//	      its compaction horizon, or its epoch disagrees with the
//	      source's mark history. The follower must re-seed from snapshot.
func (src *Source) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from cursor", http.StatusBadRequest)
		return
	}
	fromEpoch, err := strconv.ParseUint(q.Get("fromEpoch"), 10, 64)
	if err != nil && q.Get("fromEpoch") != "" {
		http.Error(w, "bad fromEpoch", http.StatusBadRequest)
		return
	}
	fence, err := strconv.ParseUint(q.Get("fence"), 10, 64)
	if err != nil && q.Get("fence") != "" {
		http.Error(w, "bad fence", http.StatusBadRequest)
		return
	}
	src.setEpochHeaders(w)
	if fence > src.Store.Epoch() {
		http.Error(w, fmt.Sprintf("fenced: follower epoch %d is ahead of source epoch %d", fence, src.Store.Epoch()),
			http.StatusForbidden)
		return
	}
	if from > src.Store.LastSeq() {
		http.Error(w, fmt.Sprintf("diverged: cursor %d is beyond source seq %d", from, src.Store.LastSeq()),
			http.StatusConflict)
		return
	}
	if from > 0 {
		if want := src.Store.EpochAt(from); want != fromEpoch {
			http.Error(w, fmt.Sprintf("diverged: cursor %d is epoch %d here, follower says %d", from, want, fromEpoch),
				http.StatusConflict)
			return
		}
	}

	maxBatch := src.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 512
	}
	flusher, _ := w.(http.Flusher)
	// Commit the 200 and push the headers out before the first frame (or
	// the long-poll park): the follower flips to streaming state when the
	// response arrives, which must not wait for the next commit.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	cur := from
	var buf []byte
	for {
		// Grab the broadcast channel before reading frames: a commit that
		// lands between the read and the select closes this channel, so
		// no wakeup is lost.
		updates := src.Store.Updates()
		frames, err := src.Store.FramesSince(cur, maxBatch)
		if err != nil {
			// The cursor predates the log (a store reopened WAL-only
			// from a corrupt snapshot starts past seq 1) — sever; the
			// follower re-syncs.
			return
		}
		if len(frames) > 0 {
			buf = buf[:0]
			for i := range frames {
				buf = frames[i].AppendWire(buf)
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			cur = frames[len(frames)-1].Seq
			continue
		}
		select {
		case <-updates:
		case <-r.Context().Done():
			return
		case <-src.drain():
			return
		}
	}
}

// drain returns the drain channel, or a nil channel (blocks forever) when
// the source has none.
func (src *Source) drain() <-chan struct{} { return src.Drain }
