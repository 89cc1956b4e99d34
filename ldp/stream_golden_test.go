package ldp

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strings"
	"testing"
)

// The golden streams pin what a shipped client emits, draw for draw:
// for every streaming mechanism (and both domain encodings) 32 users
// with fixed seeds and fixed change times run a whole horizon, and each
// user's announced order plus an FNV-1a over its report sequence is
// compared with constants generated at the commit before the client
// was flattened (PR 17). A change that consumes one PCG word more,
// fewer, or in a different order fails here, not in a benchmark.

const (
	goldenD     = 64
	goldenK     = 4
	goldenUsers = 32
)

// goldenSeed is user u's client seed.
func goldenSeed(u int) int64 { return 0x5eed<<16 + int64(u)*7919 }

// goldenChangeTimes is user u's fixed change schedule: u mod (max+1)
// changes at distinct times in [1..d], increasing.
func goldenChangeTimes(u, max int) []int {
	n := u % (max + 1)
	seen := map[int]bool{}
	var ts []int
	for i := 0; len(ts) < n; i++ {
		t := 1 + (u*7+i*13)%goldenD
		if !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	sort.Ints(ts)
	return ts
}

// goldenStream is one user's outcome: the announced order and the hash
// of every (J, Bit[, Item]) the client emitted, in order.
type goldenStream struct {
	order int
	sum   uint64
}

func hashReport(h hash.Hash64, fields ...int) {
	var b [8]byte
	for _, f := range fields {
		for i := range b {
			b[i] = byte(uint64(f) >> (8 * i))
		}
		h.Write(b[:])
	}
}

// boolGolden runs the 32 Boolean users of one mechanism. Clipped
// clients get up to 2k changes, so the freeze path is exercised;
// unclipped ones stay within the sparsity contract.
func boolGolden(t *testing.T, mech Protocol, clip bool) []goldenStream {
	t.Helper()
	opts := []Option{WithMechanism(mech), WithEpsilon(1), WithSparsity(goldenK)}
	maxChanges := goldenK
	if clip {
		opts = append(opts, WithClipping())
		maxChanges = 2 * goldenK
	}
	f, err := NewClientFactory(goldenD, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]goldenStream, goldenUsers)
	for u := range out {
		c, err := f.NewClient(u, goldenSeed(u))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		times := goldenChangeTimes(u, maxChanges)
		value := false
		for p := 1; p <= goldenD; p++ {
			if len(times) > 0 && times[0] == p {
				value, times = !value, times[1:]
			}
			if r, ok := c.Observe(value); ok {
				if r.User != u || r.Order != c.Order() {
					t.Fatalf("%s user %d: report %+v does not carry the client's identity", mech, u, r)
				}
				hashReport(h, r.J, int(r.Bit))
			}
		}
		out[u] = goldenStream{order: c.Order(), sum: h.Sum64()}
	}
	return out
}

// domainGolden runs the 32 domain users of one encoding over
// futurerand: the value is unset until the first change and then walks
// a fixed item sequence.
func domainGolden(t *testing.T, m int, opts ...Option) []goldenStream {
	t.Helper()
	opts = append([]Option{WithEpsilon(1), WithSparsity(goldenK)}, opts...)
	f, err := NewDomainClientFactory(goldenD, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]goldenStream, goldenUsers)
	for u := range out {
		c, err := f.NewClient(u, goldenSeed(u))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		times := goldenChangeTimes(u, goldenK)
		value, changes := -1, 0
		for p := 1; p <= goldenD; p++ {
			if len(times) > 0 && times[0] == p {
				value, times = (u*5+changes*3)%m, times[1:]
				changes++
			}
			r, ok, err := c.Observe(value)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				if r.User != u || r.Order != c.Order() || r.Item != c.Item() {
					t.Fatalf("domain user %d: report %+v does not carry the client's identity", u, r)
				}
				hashReport(h, r.J, int(r.Bit), r.Item)
			}
		}
		out[u] = goldenStream{order: c.Order(), sum: h.Sum64()}
	}
	return out
}

func TestGoldenStreams(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) []goldenStream
		want goldenWant
	}{
		{"futurerand", func(t *testing.T) []goldenStream { return boolGolden(t, FutureRand, false) }, goldenFutureRand},
		{"futurerand/clipped", func(t *testing.T) []goldenStream { return boolGolden(t, FutureRand, true) }, goldenFutureRandClipped},
		{"bun", func(t *testing.T) []goldenStream { return boolGolden(t, Bun, false) }, goldenBun},
		{"bun/clipped", func(t *testing.T) []goldenStream { return boolGolden(t, Bun, true) }, goldenBunClipped},
		{"independent", func(t *testing.T) []goldenStream { return boolGolden(t, Independent, false) }, goldenIndependent},
		{"independent/clipped", func(t *testing.T) []goldenStream { return boolGolden(t, Independent, true) }, goldenIndependentClipped},
		{"erlingsson", func(t *testing.T) []goldenStream { return boolGolden(t, Erlingsson, false) }, goldenErlingsson},
		{"domain/exact", func(t *testing.T) []goldenStream { return domainGolden(t, 16) }, goldenDomainExact},
		{"domain/loloha", func(t *testing.T) []goldenStream {
			return domainGolden(t, 1000, WithDomainEncoding("loloha"), WithBuckets(8), WithHashSeed(42))
		}, goldenDomainLoloha},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			var orders strings.Builder
			sums := make([]uint64, len(got))
			for u, s := range got {
				fmt.Fprintf(&orders, "%d", s.order)
				sums[u] = s.sum
			}
			ok := orders.String() == tc.want.orders && len(sums) == len(tc.want.sums)
			for u := 0; ok && u < len(sums); u++ {
				ok = sums[u] == tc.want.sums[u]
			}
			if !ok {
				var b strings.Builder
				fmt.Fprintf(&b, "goldenWant{\n\torders: %q,\n\tsums: []uint64{", orders.String())
				for u, s := range sums {
					if u%4 == 0 {
						b.WriteString("\n\t\t")
					} else {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%#016x,", s)
				}
				b.WriteString("\n\t},\n}")
				t.Errorf("stream differs from the pinned constants; this run produced:\n%s", b.String())
			}
		})
	}
}

// TestGoldenClippedStreamsExceedBudget guards the fixture itself: the
// clipped cases must feed streams that really exceed k, or the freeze
// path would go unpinned.
func TestGoldenClippedStreamsExceedBudget(t *testing.T) {
	over := 0
	for u := 0; u < goldenUsers; u++ {
		if len(goldenChangeTimes(u, 2*goldenK)) > goldenK {
			over++
		}
	}
	if over < goldenUsers/4 {
		t.Fatalf("only %d of %d clipped fixture users exceed k=%d changes", over, goldenUsers, goldenK)
	}
}

// goldenWant is one case's pinned outcome: the 32 announced orders as a
// digit string (orders at d = 64 are 0..6) and the 32 stream hashes.
type goldenWant struct {
	orders string
	sums   []uint64
}

// Generated at commit ba5e990 (the parent of PR 17) by running this test
// with empty constants; do not regenerate to make a failure go away.
var (
	goldenFutureRand = goldenWant{
		orders: "04416016554535150500341145150505",
		sums: []uint64{
			0x6461bc3371f202a5, 0x120ab55f3a3d0d78, 0xb61b01197f73fa11, 0xb4cd2f397b31fb25,
			0xc4777a6e69ba809c, 0x5e539b737f7ab78c, 0xe877f1ec413ceacc, 0xc4777a6e69ba809c,
			0xdac2eb846d6bec7f, 0xdac2eb846d6bec7f, 0x1b8002600ce03051, 0xacd26b54833985e6,
			0x42d90fc3c9df8a1d, 0x18b82c43a64ec23f, 0xe1d74d409f6577b5, 0xacd26b54833985e6,
			0x5c472e00d6733b65, 0xdac2eb846d6bec7f, 0xde20d21360f108fc, 0xd6c6e89dd2d1c975,
			0x27fa8d729ada40fd, 0x120ab55f3a3d0d78, 0xdbf0141e82e7e2a5, 0x182c6321345d9e75,
			0xf73e2e87ec32d228, 0xdac2eb846d6bec7f, 0x7f9b73c66f1679dc, 0x18b82c43a64ec23f,
			0x6798faf95d045295, 0xacd26b54833985e6, 0x9d85ad0c41c94c2c, 0x8f4901fe6ea53c96,
		},
	}
	goldenFutureRandClipped = goldenWant{
		orders: "04416016554535150500341145150505",
		sums: []uint64{
			0x6461bc3371f202a5, 0x120ab55f3a3d0d78, 0xb61b01197f73fa11, 0xb4cd2f397b31fb25,
			0xc4777a6e69ba809c, 0xf897bb130d587be5, 0x5e669d4fbb54caac, 0xc4777a6e69ba809c,
			0xacd26b54833985e6, 0xdac2eb846d6bec7f, 0x109b92b1425b4bb8, 0xacd26b54833985e6,
			0x42d90fc3c9df8a1d, 0xdac2eb846d6bec7f, 0x6ae903f689a93ad5, 0x8f4901fe6ea53c96,
			0x8458b1ae5e8d0245, 0xdac2eb846d6bec7f, 0xbb0dc4bbde3b2f75, 0xd0f33e04ca621b75,
			0x4a11af769c506acd, 0x120ab55f3a3d0d78, 0xb626c1e4fd53d64c, 0x0e833fb91ae24705,
			0x16114e79e7a3ce68, 0xdac2eb846d6bec7f, 0xd66d15efe826e89c, 0xacd26b54833985e6,
			0x0c5db534b73bc5c5, 0xacd26b54833985e6, 0xceed259b1fc723dc, 0x8f4901fe6ea53c96,
		},
	}
	goldenBun = goldenWant{
		orders: "04416016554535150500341145150505",
		sums: []uint64{
			0x6461bc3371f202a5, 0x120ab55f3a3d0d78, 0x16114e79e7a3ce68, 0x34ac4540485beccc,
			0xc4777a6e69ba809c, 0xa7011ca690330785, 0xfee4605406b8c04c, 0xc4777a6e69ba809c,
			0xdac2eb846d6bec7f, 0xdac2eb846d6bec7f, 0x1b8002600ce03051, 0xacd26b54833985e6,
			0x42d90fc3c9df8a1d, 0x18b82c43a64ec23f, 0x485cfb59f8e81eb5, 0x18b82c43a64ec23f,
			0xd49c6a137162cb8c, 0xacd26b54833985e6, 0x67e2bc3e0d375dc5, 0x1b01bb978224c20c,
			0xa6d983bdb1d8077d, 0x120ab55f3a3d0d78, 0xe426b3dabb2e0a9c, 0xbdf3a28155b0acfc,
			0x6ff802d116b4b721, 0x8f4901fe6ea53c96, 0x7f9b73c66f1679dc, 0xacd26b54833985e6,
			0xab75fa5bff273c05, 0xacd26b54833985e6, 0x9d85ad0c41c94c2c, 0x8f4901fe6ea53c96,
		},
	}
	goldenBunClipped = goldenWant{
		orders: "04416016554535150500341145150505",
		sums: []uint64{
			0x6461bc3371f202a5, 0x120ab55f3a3d0d78, 0x16114e79e7a3ce68, 0x34ac4540485beccc,
			0xc4777a6e69ba809c, 0xb5b728125dca1c65, 0xe83837c70b807715, 0xc4777a6e69ba809c,
			0xacd26b54833985e6, 0xdac2eb846d6bec7f, 0x109b92b1425b4bb8, 0xacd26b54833985e6,
			0x42d90fc3c9df8a1d, 0xdac2eb846d6bec7f, 0xf34860776f2ca655, 0x8f4901fe6ea53c96,
			0x6769ccfc1c9814a5, 0xdac2eb846d6bec7f, 0x09d698bb85210f5c, 0x70fdffbfd7ce550c,
			0xc449f60c9777813d, 0x120ab55f3a3d0d78, 0xc0ba3eb8a285d64c, 0xb918e38e85874f9c,
			0x6ff802d116b4b721, 0x8f4901fe6ea53c96, 0xd66d15efe826e89c, 0xdac2eb846d6bec7f,
			0x4fd715368cde8c7c, 0xacd26b54833985e6, 0xceed259b1fc723dc, 0x8f4901fe6ea53c96,
		},
	}
	goldenIndependent = goldenWant{
		orders: "04416016554535150500341145150505",
		sums: []uint64{
			0xfa73abdfe1c1accc, 0xf73e2e87ec32d228, 0x109b92b1425b4bb8, 0xcfe09c1ac37ff75c,
			0x581cd0fa58d99645, 0xce9cbc190e9a2b45, 0x9609f186713c5fcc, 0xc4777a6e69ba809c,
			0x18b82c43a64ec23f, 0x8f4901fe6ea53c96, 0xf73e2e87ec32d228, 0xacd26b54833985e6,
			0x8825f6e03f5e3ccd, 0xdac2eb846d6bec7f, 0x6a97817dd682a1bc, 0xacd26b54833985e6,
			0x5f00758b7a005b45, 0x8f4901fe6ea53c96, 0x2fdf1d77f5d7f64c, 0xb90fae97c3fc6b15,
			0x944f7ee904559e8d, 0xa6bff5345b09afd1, 0x3b37ad5c520282ac, 0xb36f87b9de681bfc,
			0x767187dc23f0e828, 0x18b82c43a64ec23f, 0x39a729bb2602acd5, 0x8f4901fe6ea53c96,
			0x8f3a6e1e54ef0a6c, 0xdac2eb846d6bec7f, 0x41228ee78ebd5c95, 0xdac2eb846d6bec7f,
		},
	}
	goldenIndependentClipped = goldenWant{
		orders: "04416016554535150500341145150505",
		sums: []uint64{
			0xfa73abdfe1c1accc, 0xf73e2e87ec32d228, 0x109b92b1425b4bb8, 0xcfe09c1ac37ff75c,
			0x581cd0fa58d99645, 0x4865a436baeac165, 0xa9b15b3bd134479c, 0xc4777a6e69ba809c,
			0x18b82c43a64ec23f, 0x8f4901fe6ea53c96, 0xf73e2e87ec32d228, 0xacd26b54833985e6,
			0x98fab80e05483954, 0xdac2eb846d6bec7f, 0xe85a1b27a20d5bac, 0xdac2eb846d6bec7f,
			0x20e7715d15d7602c, 0xacd26b54833985e6, 0x24dba3b4cd313325, 0xb90fae97c3fc6b15,
			0x944f7ee904559e8d, 0xa6bff5345b09afd1, 0x01ef9d99e012a3d5, 0xb36f87b9de681bfc,
			0xf73e2e87ec32d228, 0x18b82c43a64ec23f, 0x11b2d147a47d73d5, 0xacd26b54833985e6,
			0x8f3a6e1e54ef0a6c, 0xdac2eb846d6bec7f, 0x9ecc797ef2175f95, 0xdac2eb846d6bec7f,
		},
	}
	goldenErlingsson = goldenWant{
		orders: "04416016554535150500341145150505",
		sums: []uint64{
			0x6ced9a6c0c03d09c, 0x16114e79e7a3ce68, 0x767187dc23f0e828, 0x6b12186b59bdd4e5,
			0x581cd0fa58d99645, 0x14278a84bc5bcc55, 0x5fc3e5f295869f3c, 0x581cd0fa58d99645,
			0x18b82c43a64ec23f, 0xdac2eb846d6bec7f, 0xb61b01197f73fa11, 0xdac2eb846d6bec7f,
			0xb269d10123539a64, 0x18b82c43a64ec23f, 0x24792e094080cd55, 0xacd26b54833985e6,
			0x9131f444d3b922b5, 0xdac2eb846d6bec7f, 0x2c6c95fe1a5e08bc, 0x573d4829277c757c,
			0x5b4a27c77a28e4fd, 0xf15274ec3bcf69b8, 0xedfc5db8c1eccad5, 0xe763b3e9fe5d5f3c,
			0x16114e79e7a3ce68, 0xacd26b54833985e6, 0x1780c83d7d8a0bac, 0xdac2eb846d6bec7f,
			0x03072e6ed16a211c, 0x18b82c43a64ec23f, 0x3229b4cf1b5c497c, 0x8f4901fe6ea53c96,
		},
	}
	goldenDomainExact = goldenWant{
		orders: "53650004224610011222163254661236",
		sums: []uint64{
			0xa873377c3609ea96, 0x16379fb20bcbb074, 0x140a42235c615b14, 0x07b1904f7ba334a6,
			0xcd9df7216fa65735, 0xefede838189ab14c, 0xb8af00050857feac, 0xea290290b679eb41,
			0xc2d6023bec33f01c, 0x583d13a70ea1b46c, 0x0659b04f1af22138, 0x6409569997830dab,
			0x3b976e734044262c, 0x0aac597789d9ff8c, 0xd839f91663f6830c, 0x66fb7873efd7d835,
			0x3c92e2268c22dcbc, 0xd144b7e8c0046d9c, 0xcb651ac3435e0ebc, 0x44ca1975a14d473c,
			0xb529d27d078bb915, 0xe81e3a756bc5e527, 0x062e56fd89e4d78d, 0x82346484d2383345,
			0xa5e23b0af4890586, 0x0d65e434f25920a1, 0x981f25ff30a43290, 0xb719ed083b937cb1,
			0x03d6439a8915c11c, 0x3c1be19bc43334e5, 0x1513290972075f44, 0x51ffd035723fef56,
		},
	}
	goldenDomainLoloha = goldenWant{
		orders: "53650004224610011222163254661236",
		sums: []uint64{
			0xa873377c3609ea96, 0x53cf06f7521827a4, 0x0be07a6bb3dbac1c, 0xa8884a8fcd74411f,
			0x9daa0fb9e5d0bc85, 0xefede838189ab14c, 0xb8af00050857feac, 0xd69f3b5072aadb31,
			0xc2d6023bec33f01c, 0xd698cb05c6b52f95, 0x0659b04f1af22138, 0x6c331e514008bca3,
			0x0c3e65b48a71247c, 0x28de1750d25886ec, 0xd839f91663f6830c, 0x0ea336f3c11db4b5,
			0x98033e2d0ddb663c, 0xe0ee1f49b867d725, 0xa30704aebb18087c, 0xb187adb9bb02fda5,
			0xda288f7e3753e3a5, 0xe81e3a756bc5e527, 0x062e56fd89e4d78d, 0x5ff01f5b1204ba15,
			0xa873377c3609ea96, 0xf4cd758c3d7308b1, 0x8ff55e47881e8398, 0xaef02550930dcdb9,
			0x03d6439a8915c11c, 0xcd05d7921e2ff335, 0x1513290972075f44, 0x49d6087dc9ba405e,
		},
	}
)
