package main

import (
	"net/http"

	"rtf/internal/cluster"
	"rtf/internal/membership"
	"rtf/internal/obs"
	"rtf/internal/transport"
)

// runMember serves the dynamic-membership mode: the gateway fronts a
// versioned member set, replicates every ingested sub-batch to its
// shard's K rendezvous owners, answers queries by quorum reads, and
// exposes the reshard admin API next to /metrics. It does not return
// except through fatal.
func runMember(logger *obs.Logger, cfg config) {
	rc := transport.NewReplicaClient(cfg.opts)
	var (
		gw  *cluster.MemberGateway
		err error
	)
	if cfg.m > 0 {
		gw, err = cluster.NewMemberDomain(cfg.d, cfg.m, cfg.scale, cfg.vshards, cfg.replicas, cfg.members, rc)
	} else {
		gw, err = cluster.NewMember(cfg.d, cfg.scale, cfg.vshards, cfg.replicas, cfg.members, rc)
	}
	if err != nil {
		fatal(err)
	}
	// Backends may still be coming up; the announce rides the replica
	// client's dial backoff.
	if err := gw.AnnounceView(); err != nil {
		fatal(err)
	}
	logView(logger, gw.View())

	serve(logger, cfg, gw.Server, func(reg *obs.Registry, mux *http.ServeMux) {
		reg.SetInfo("mode", "membership")
		reg.GaugeFunc("membership_epoch", func() float64 { return float64(gw.Epoch()) })
		reg.GaugeFunc("membership_members", func() float64 { return float64(len(gw.View().Members)) })
		reg.GaugeFunc("membership_transfers_total", func() float64 { return float64(gw.TransfersTotal()) })
		reg.GaugeFunc("membership_divergences_total", func() float64 { return float64(gw.Divergences()) })
		reg.GaugeFunc("membership_short_reads_total", func() float64 { return float64(gw.ShortReads()) })
		admin := gw.AdminHandler()
		mux.Handle("/membership/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			admin.ServeHTTP(w, r)
			if r.Method == http.MethodPost {
				logView(logger, gw.View())
			}
		}))
	}, []any{"members", len(cfg.members), "replicas", cfg.replicas, "vshards", cfg.vshards})
}

// logView logs the installed cluster view in logfmt.
func logView(logger *obs.Logger, v membership.View) {
	ids := ""
	for i, m := range v.Members {
		if i > 0 {
			ids += ","
		}
		ids += m.ID
	}
	logger.Info("view", "epoch", v.Epoch, "k", v.K, "vshards", v.NumShards, "members", ids)
}
