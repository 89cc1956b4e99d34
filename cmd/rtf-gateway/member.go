package main

import (
	"net/http"
	"strings"

	"rtf/internal/cluster"
	"rtf/internal/membership"
	"rtf/internal/obs"
)

// membershipAdmin is what a gateway over a member placement mounts next
// to /metrics: the membership gauges and the reshard admin API.
func membershipAdmin(logger *obs.Logger, gw *cluster.Gateway) func(*obs.Registry, *http.ServeMux) {
	return func(reg *obs.Registry, mux *http.ServeMux) {
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
	}
}

// logView logs the installed cluster view in logfmt.
func logView(logger *obs.Logger, v membership.View) {
	ids := make([]string, len(v.Members))
	for i, m := range v.Members {
		ids[i] = m.ID
	}
	logger.Info("view", "epoch", v.Epoch, "k", v.K, "vshards", v.NumShards, "members", strings.Join(ids, ","))
}
