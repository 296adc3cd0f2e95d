package strlgen

import (
	"testing"

	"tetrisched/internal/cluster"
	"tetrisched/internal/workload"
)

// FuzzRepriceMatchesGenerate decodes a job — any type and class, data nodes
// in and out of the cluster, a best-effort floor of 0 or above it — and a
// sequence of cycle times, and carries one request through them by Reprice
// alone. At every step the request must be what GenerateTTL makes for that
// cycle, bit for bit with the same expiry bound (Rev apart, and a MAX with no
// kids nil or empty alike: sameRequest), or both must have nothing left, and
// its expression must point at its options' leaves (aliasErr).
//
// Bytes: 0 plan-ahead slices, 1 BE decay, 2 floor, 3 earliness weight and
// NoHeterogeneity, 4 ID, 5 type, 6 K, 7 base runtime, 8 slowdown, 9 priority,
// 10 submit, 11 class, 12 deadline, 13 data-node count and stride, 14 first
// data node, 15 elastic MinK; each byte after that advances `now` by its
// value mod 32 seconds.
func FuzzRepriceMatchesGenerate(f *testing.F) {
	c := cluster.RC80(true)
	// testdata holds a reserved SLO GPU job whose latest starts pass their
	// deadline one by one, down to none. A decaying best-effort MPI job reaching a floor of 0.
	f.Add([]byte{24, 2, 0, 1, 9, 2, 6, 12, 3, 1, 8, 0, 0, 0, 0, 0, 16, 16, 16, 16, 16, 16, 16, 16})
	// A data-local SLO job without a reservation, some data nodes past the cluster.
	f.Add([]byte{6, 0, 0, 2, 3, 4, 3, 8, 7, 2, 4, 2, 10, 13, 70, 0, 3, 5, 0, 4, 7, 4})
	// A reserved SLO GPU job whose preferred placement, strided finer, loses
	// its latest starts while the fallback after it keeps all of its own: the
	// trim shifts the fallback's options down over the lost ones.
	f.Add([]byte{23, 0, 0, 0, 1, 1, 3, 19, 0, 0, 0, 1, 30, 0, 0, 0, 16, 4, 16, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16 {
			return
		}
		cfg := Default(4, 4*int64(1+data[0]%24))
		cfg.BEDecay = 8 + 8*int64(data[1])
		cfg.BEFloor = float64(data[2]%3) * 0.01
		cfg.EarlinessEps = float64(data[3]%4) * 0.02
		cfg.NoHeterogeneity = data[3]&4 != 0
		g := New(c, cfg)
		j := &workload.Job{ID: int(data[4]), Type: workload.Type(data[5] % 5), K: 1 + int(data[6]%12),
			BaseRuntime: 1 + int64(data[7]), Slowdown: 1 + float64(data[8]%8)/2,
			Priority: float64(data[9] % 3), Submit: int64(data[10])}
		switch data[11] % 3 {
		case 0:
			j.Class = workload.BestEffort
		case 1:
			j.Class, j.Reserved = workload.SLO, true
		default:
			j.Class = workload.SLO
		}
		j.Deadline = j.Submit + 4*int64(data[12])
		for n, stride := 0, 1+int(data[13]%4); n < j.K-1+int(data[13]/4%3); n++ {
			j.DataNodes = append(j.DataNodes, int(data[14])+stride*n)
		}
		if j.Type == workload.Elastic {
			j.MinK = 1 + int(data[15])%j.K
		}
		now := j.Submit
		req, _ := g.GenerateTTL(now, j)
		for _, b := range data[16:] {
			if req == nil {
				return
			}
			now += int64(b % 32)
			fresh, freshUntil := g.GenerateTTL(now, j)
			got, ok := g.Reprice(now, req)
			if !ok {
				if fresh != nil {
					t.Fatalf("now=%d: Reprice left nothing, GenerateTTL %d options: %+v", now, len(fresh.Options), summarize(fresh))
				}
				return
			}
			if fresh == nil {
				t.Fatalf("now=%d: Reprice kept %d options of a request GenerateTTL no longer makes: %+v", now, len(req.Options), summarize(req))
			}
			fresh.Rev = req.Rev
			if !sameRequest(req, fresh) || got != freshUntil {
				t.Fatalf("now=%d: re-priced (valid until %d):\n  %+v\nfresh (valid until %d):\n  %+v",
					now, got, summarize(req), freshUntil, summarize(fresh))
			}
			if err := aliasErr(req); err != nil {
				t.Fatalf("now=%d: re-priced %+v: %v", now, summarize(req), err)
			}
		}
	})
}
