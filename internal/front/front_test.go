package front

import (
	"errors"
	"flag"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rtf/ldp"
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

// TestRegisterDerivesCapabilities checks that what a built-in mechanism
// can be served on follows from what it provides. The four that set
// EstimatorScale are served wherever a dyadic mechanism is:
// NewDomainServer under both encodings, and both fronts at the scale
// they declare. The two that set Server are served by NewServer alone;
// the domain constructors and both fronts refuse them under their usual
// texts, listing exactly the four.
func TestRegisterDerivesCapabilities(t *testing.T) {
	const d, k, m, eps = 64, 2, 16, 1.0
	encodings := map[string][]ldp.Option{"exact": nil, "loloha": {ldp.WithDomainEncoding("loloha"), ldp.WithBuckets(8)}}
	dyadic := []string{"bun", "erlingsson", "futurerand", "independent"}
	var got []string
	for _, mech := range ldp.Mechanisms() {
		p := mech.Protocol
		opts := []ldp.Option{ldp.WithMechanism(p), ldp.WithSparsity(k), ldp.WithEpsilon(eps)}
		if _, err := ldp.NewServer(d, opts...); err != nil {
			t.Errorf("NewServer(%s): %v", p, err)
		}
		if mech.Dyadic() {
			got = append(got, string(p))
		}
		for name, enc := range encodings {
			_, err := ldp.NewDomainServer(d, m, append(enc, opts...)...)
			switch refused := fmt.Sprintf("ldp: mechanism %q does not support domain tracking", p); {
			case mech.Dyadic() && err != nil:
				t.Errorf("NewDomainServer(%s, %s): %v", p, name, err)
			case !mech.Dyadic() && (err == nil || err.Error() != refused):
				t.Errorf("NewDomainServer(%s, %s) = %v, want %q", p, name, err, refused)
			}
		}
		for _, tc := range []struct {
			role Role
			want string
		}{
			{Node, fmt.Sprintf("mechanism %q cannot be hosted on the sharded accumulator; hostable: ", p)},
			{Gateway, fmt.Sprintf("mechanism %q cannot be clustered (its server state does not merge across machines); clustered mechanisms: ", p)},
		} {
			c := Config{Mech: string(p), D: d, K: k, Encoding: "exact", Eps: eps}
			err := c.Resolve(tc.role)
			if mech.Dyadic() {
				scale, serr := mech.EstimatorScale(ldp.Params{D: d, K: k, Eps: eps})
				if serr != nil || err != nil || c.Scale != scale {
					t.Errorf("%s: Resolve(%s) = %v at scale %v, want nil at %v (%v)", tc.role.Name, p, err, c.Scale, scale, serr)
				}
			} else if err == nil || err.Error() != tc.want+strings.Join(dyadic, ", ") {
				t.Errorf("%s: Resolve(%s) = %v, want %q followed by the dyadic mechanisms", tc.role.Name, p, err, tc.want)
			}
		}
	}
	if !slices.Equal(got, dyadic) {
		t.Fatalf("dyadic built-ins %v, want %v", got, dyadic)
	}
}

// TestParsePrintsOnlyHelp: a refused flag set prints nothing of its own,
// so the binary's Exit line is the first thing on stderr; -h prints the
// usage and returns flag.ErrHelp.
func TestParsePrintsOnlyHelp(t *testing.T) {
	parse := func(args ...string) (string, error) {
		var out strings.Builder
		var c Config
		fs := flag.NewFlagSet("front", flag.ContinueOnError)
		fs.SetOutput(&out)
		c.Register(fs)
		err := Parse(fs, args)
		return out.String(), err
	}
	for _, args := range [][]string{{"-no-such-flag"}, {"-d", "x"}} {
		out, err := parse(args...)
		if err == nil || out != "" {
			t.Fatalf("Parse(%q) = %v, printed %q; want an error and no output", args, err, out)
		}
	}
	out, err := parse("-h")
	if !errors.Is(err, flag.ErrHelp) || !strings.Contains(out, "Usage of front:") || !strings.Contains(out, "-eps") {
		t.Fatalf("Parse(-h) = %v, printed %q; want flag.ErrHelp and the usage", err, out)
	}
}
