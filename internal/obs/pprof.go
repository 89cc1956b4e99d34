package obs

import (
	"net/http"
	"net/http/pprof"
)

// MountPprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/ on mux. Importing net/http/pprof at all, named or blank,
// also registers them on http.DefaultServeMux when the program starts;
// what keeps profiling off every other listener is that no rtf binary
// serves DefaultServeMux — each serves its own mux on the operator's
// metrics listener, and mounts these only when its -pprof flag asks for
// them — and that the client library does not link this package (ldp's
// TestClientLinksNoServer). The index page links the named profiles
// (heap, goroutine, block, mutex, allocs); /profile and /trace capture
// CPU profiles and execution traces. See docs/PERFORMANCE.md for the
// profiling workflow.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
