package profile

import (
	"encoding/json"
	"net/http"
)

// Handler serves a profile snapshot source at /profiles:
//
//	GET /profiles                  derived planner-facing view (JSON)
//	GET /profiles?format=snapshot  raw mergeable Snapshot (JSON) — what
//	                               the coordinator fetches from workers
//
// The per-destination counters and latency histogram are on /metrics as
// the wsq_pump_* families; this endpoint adds the disk base and the
// derived percentiles.
//
// get is called per request, so the handler works equally for a live
// Store (Store.Snapshot) and for the coordinator's tier-wide merge.
func Handler(get func() *Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sn := get()
		if sn == nil {
			sn = &Snapshot{Version: SnapshotVersion, Dests: map[string]*DestSnapshot{}}
		}
		switch r.URL.Query().Get("format") {
		case "snapshot":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(sn)
		default:
			profiles, query := sn.Derive()
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				Node         string       `json:"node,omitempty"`
				Destinations []Profile    `json:"destinations"`
				Query        QueryProfile `json:"query"`
			}{sn.Node, profiles, query})
		}
	})
}

// Handler returns the store's /profiles handler.
func (s *Store) Handler() http.Handler {
	return Handler(func() *Snapshot { return s.Snapshot() })
}
