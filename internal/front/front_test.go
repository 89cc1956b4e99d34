package front

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// resolve parses args into a Config and resolves it for role r.
func resolve(t *testing.T, r Role, args string) *Config {
	t.Helper()
	var c Config
	fs := flag.NewFlagSet("front", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	if err := c.Resolve(r); err != nil {
		t.Fatalf("Resolve(%q): %v", args, err)
	}
	return &c
}

// TestInfo pins the /metrics info map of one front per mode, read
// through the registry Serve mounts: the component and every protocol
// parameter in force, so an operator can tell which deployment a
// process belongs to.
func TestInfo(t *testing.T) {
	for _, tc := range []struct {
		role Role
		args string
		mode string
		want map[string]string
	}{
		{Node, "-d 256 -k 4", "boolean", map[string]string{
			"component": "rtf-serve", "mechanism": "futurerand", "d": "256", "k": "4", "m": "0", "eps": "1",
			"encoding": "exact", "buckets": "0", "hash_seed": "0", "scale": "247.3891329917347",
		}},
		{Gateway, "-mechanism erlingsson -m 64 -eps 0.5", "domain", map[string]string{
			"component": "rtf-gateway", "mechanism": "erlingsson", "d": "1024", "k": "8", "m": "64", "eps": "0.5",
			"encoding": "exact", "buckets": "0", "hash_seed": "0", "scale": "707.6628528970526",
		}},
		{Gateway, "-d 128 -m 1000000 -encoding loloha -buckets 256 -hash-seed 65261", "hashed-domain", map[string]string{
			"component": "rtf-gateway", "mechanism": "futurerand", "d": "128", "k": "8", "m": "1000000", "eps": "1",
			"encoding": "loloha", "buckets": "256", "hash_seed": "65261", "scale": "298.63193427609303",
		}},
	} {
		c := resolve(t, tc.role, tc.args)
		if got := c.Mode.Name(); got != tc.mode {
			t.Errorf("%s %q: mode %q, want %q", tc.role.Name, tc.args, got, tc.mode)
		}
		if got := c.registry().Snapshot().Info; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %q: info\n got %v\nwant %v", tc.role.Name, tc.args, got, tc.want)
		}
	}
}

// TestMeta checks the snapshot meta: the exact and Boolean modes leave
// the hashed fields zero, so their data directories keep the snapshot
// bytes they had before the hashed encoding existed.
func TestMeta(t *testing.T) {
	exact := resolve(t, Node, "-m 64").Meta()
	if exact.Encoding != "" || exact.G != 0 || exact.HashSeed != 0 || exact.M != 64 || exact.Scale <= 0 {
		t.Fatalf("exact meta %+v", exact)
	}
	hashed := resolve(t, Node, "-m 100000 -encoding loloha -buckets 64 -hash-seed 7").Meta()
	if hashed.Encoding != "loloha" || hashed.G != 64 || hashed.HashSeed != 7 {
		t.Fatalf("hashed meta %+v", hashed)
	}
}

// TestRoleRefusals checks that the capability refused is the caller's:
// a mechanism without the sharded accumulator is refused by both fronts,
// each naming what it needed.
func TestRoleRefusals(t *testing.T) {
	for _, tc := range []struct {
		role Role
		want string
	}{
		{Node, `mechanism "naive-split" cannot be hosted on the sharded accumulator; hostable: `},
		{Gateway, `mechanism "naive-split" cannot be clustered (its server state does not merge across machines); clustered mechanisms: `},
	} {
		c := Config{Mech: "naive-split", D: 64, K: 2, Encoding: "exact", Eps: 1}
		err := c.Resolve(tc.role)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) || !strings.Contains(err.Error(), "futurerand") {
			t.Errorf("%s: Resolve = %v, want %q followed by the able mechanisms", tc.role.Name, err, tc.want)
		}
	}
}
