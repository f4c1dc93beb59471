package hints

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestSettle pins the settlement rule, one case per row.
func TestSettle(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		o    Outcome
		want QualityDelta
	}{
		{
			name: "claimed push",
			o: Outcome{Hinted: true, Required: true, Pushed: true, Claimed: true, Bytes: 900,
				ArrivedAt: 100 * ms, NeededAt: 140 * ms},
			want: QualityDelta{HintsUsed: 1, PushedCount: 1, PushedBytes: 900, PushUsed: 1,
				PushLeadMs: 40, PushLeads: 1},
		},
		{
			name: "claimed push the page needed before it arrived",
			o: Outcome{Hinted: true, Required: true, Pushed: true, Claimed: true, Bytes: 900,
				ArrivedAt: 140 * ms, NeededAt: 100 * ms},
			want: QualityDelta{HintsUsed: 1, PushedCount: 1, PushedBytes: 900, PushUsed: 1},
		},
		{
			name: "unclaimed push of a URL the page never fetched",
			o:    Outcome{Hinted: true, Pushed: true, Bytes: 700, ArrivedAt: 100 * ms},
			want: QualityDelta{HintsUnused: 1, PushedCount: 1, PushedBytes: 700, PushWasted: 1, WastedPushBytes: 700},
		},
		{
			name: "late push: arrived after the page fetched the URL itself",
			o: Outcome{Hinted: true, Required: true, Pushed: true, Bytes: 500,
				ArrivedAt: 300 * ms, NeededAt: 100 * ms},
			want: QualityDelta{HintsUsed: 1, PushedCount: 1, PushedBytes: 500, PushWasted: 1, WastedPushBytes: 500},
		},
		{
			name: "hinted, not required",
			o:    Outcome{Hinted: true},
			want: QualityDelta{HintsUnused: 1},
		},
		{
			name: "required non-document never hinted",
			o:    Outcome{Required: true, NeededAt: 50 * ms},
			want: QualityDelta{HintsMissed: 1},
		},
		{
			name: "document is exempt from the miss count",
			o:    Outcome{Required: true, Doc: true},
			want: QualityDelta{},
		},
		{
			name: "neither hinted nor required",
			o:    Outcome{Bytes: 100},
			want: QualityDelta{},
		},
	} {
		if got := Settle(tc.o); got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestSettleProperties folds random outcome lists per host and checks the
// ledger identities on every host: pushed = used + wasted, wasted bytes ≤
// pushed bytes, used + unused = hinted, and missed counts exactly the
// required non-documents nobody hinted.
func TestSettleProperties(t *testing.T) {
	hosts := []string{"a.example", "b.example", "c.example"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		byHost := map[string]*QualityDelta{}
		hinted := map[string]int64{}
		missable := map[string]int64{}
		for i, n := 0, rng.Intn(60); i < n; i++ {
			pushed := rng.Intn(3) == 0
			o := Outcome{
				Host:      hosts[rng.Intn(len(hosts))],
				Hinted:    rng.Intn(2) == 0,
				Required:  rng.Intn(2) == 0,
				Doc:       rng.Intn(6) == 0,
				Pushed:    pushed,
				Claimed:   pushed && rng.Intn(2) == 0,
				Bytes:     rng.Int63n(1 << 16),
				ArrivedAt: time.Duration(rng.Int63n(int64(time.Second))),
				NeededAt:  time.Duration(rng.Int63n(int64(time.Second))),
			}
			if byHost[o.Host] == nil {
				byHost[o.Host] = &QualityDelta{}
			}
			byHost[o.Host].Add(Settle(o))
			if o.Hinted {
				hinted[o.Host]++
			} else if o.Required && !o.Doc {
				missable[o.Host]++
			}
		}
		for host, d := range byHost {
			where := fmt.Sprintf("seed %d, %s", seed, host)
			if d.PushedCount != d.PushUsed+d.PushWasted {
				t.Fatalf("%s: pushed %d != used %d + wasted %d", where, d.PushedCount, d.PushUsed, d.PushWasted)
			}
			if d.WastedPushBytes > d.PushedBytes {
				t.Fatalf("%s: wasted bytes %d > pushed bytes %d", where, d.WastedPushBytes, d.PushedBytes)
			}
			if d.HintsUsed+d.HintsUnused != hinted[host] {
				t.Fatalf("%s: used %d + unused %d != hinted %d", where, d.HintsUsed, d.HintsUnused, hinted[host])
			}
			if d.HintsMissed != missable[host] {
				t.Fatalf("%s: missed %d, want %d", where, d.HintsMissed, missable[host])
			}
			if d.PushLeads > d.PushUsed || d.HintsEmitted != 0 {
				t.Fatalf("%s: %d leads for %d used pushes, %d emitted", where, d.PushLeads, d.PushUsed, d.HintsEmitted)
			}
			if p, r := d.Precision(), d.Recall(); p < 0 || p > 1 || r < 0 || r > 1 {
				t.Fatalf("%s: precision %v, recall %v outside [0, 1]", where, p, r)
			}
		}
	}
}

func TestPrecisionRecall(t *testing.T) {
	d := QualityDelta{HintsUsed: 30, HintsUnused: 10, HintsMissed: 10}
	if d.Precision() != 0.75 || d.Recall() != 0.75 {
		t.Fatalf("precision/recall = %v/%v, want 0.75/0.75", d.Precision(), d.Recall())
	}
	if (QualityDelta{}).Precision() != 0 || (QualityDelta{}).Recall() != 0 {
		t.Fatal("an empty ledger must score 0, not NaN")
	}
}
