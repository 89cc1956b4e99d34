package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"rtf/internal/membership"
)

// Membership admin surface: a tiny JSON API the operator (and the
// acceptance simulator) drives reshards through. It mounts on the
// gateway's metrics mux, next to /metrics and /healthz:
//
//	GET  /membership/view     → the current view
//	POST /membership/reshard  → install a new member set as the next epoch
//
// The reshard body is {"members":[{"id":"...","addr":"..."}],"k":2};
// the response is the ReshardResult JSON. Reshards serialize behind the
// gateway's exclusive view lock, so concurrent posts queue rather than
// interleave.

// viewJSON is the wire form of a membership.View.
type viewJSON struct {
	Epoch     uint64       `json:"epoch"`
	K         int          `json:"k"`
	NumShards int          `json:"num_shards"`
	Members   []memberJSON `json:"members"`
}

type memberJSON struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

type reshardRequest struct {
	Members []memberJSON `json:"members"`
	K       int          `json:"k"`
}

func viewToJSON(v membership.View) viewJSON {
	out := viewJSON{Epoch: v.Epoch, K: v.K, NumShards: v.NumShards}
	for _, m := range v.Members {
		out.Members = append(out.Members, memberJSON{ID: m.ID, Addr: m.Addr})
	}
	return out
}

// AdminHandler returns the gateway's membership admin API.
func (g *Gateway) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/membership/view", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(viewToJSON(g.View()))
	})
	mux.HandleFunc("/membership/reshard", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var req reshardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("decoding reshard request: %v", err), http.StatusBadRequest)
			return
		}
		members := make([]membership.Member, 0, len(req.Members))
		for _, m := range req.Members {
			members = append(members, membership.Member{ID: m.ID, Addr: m.Addr})
		}
		res, err := g.Reshard(members, req.K)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res)
	})
	return mux
}
