package hintstore

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vroom/internal/hints"
	"vroom/internal/hintstore/persist"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// TestQualityLedgerAndMetrics drives NoteQuality and checks the per-shard
// ledger and the bounded per-origin metric families agree.
func TestQualityLedgerAndMetrics(t *testing.T) {
	site := webpage.NewSite("quality00", webpage.News, 2017)
	origin := site.RootURL().Host
	r := trainedResolver(t, site)

	reg := telemetry.NewRegistry()
	st := New(Config{TTL: time.Hour, MaxTenants: 4})
	st.Instrument(reg)
	defer st.Drain(time.Second)
	if err := st.Register(origin, webpage.PhoneSmall, StaticTrainer(r)); err != nil {
		t.Fatal(err)
	}

	st.NoteQuality(origin, hints.QualityDelta{HintsEmitted: 10})
	st.NoteQuality(origin, hints.QualityDelta{HintsUsed: 7, PushedCount: 3, PushedBytes: 3000})
	st.NoteQuality(origin, hints.QualityDelta{HintsUnused: 3, WastedPushBytes: 1000})
	st.NoteQuality(origin, hints.QualityDelta{HintsMissed: 1})
	st.NoteQuality(origin, hints.QualityDelta{PushLeadMs: 40, PushLeads: 1})
	st.NoteQuality(origin, hints.QualityDelta{StaleMs: 1500, StaleObs: 1})

	q := st.QualityOf(origin)
	if q.HintsEmitted != 10 || q.HintsUsed != 7 || q.HintsUnused != 3 || q.HintsMissed != 1 {
		t.Fatalf("ledger counts: %+v", q)
	}
	if q.PushedCount != 3 || q.PushedBytes != 3000 || q.WastedPushBytes != 1000 {
		t.Errorf("push bytes: %+v", q)
	}
	if q.PushLeadMsSum != 40 || q.PushLeads != 1 || q.StaleServeMsSum != 1500 || q.StaleServes != 1 {
		t.Errorf("lead/staleness observations: %+v", q)
	}

	// Unknown origins reach metrics but have no ledger.
	st.NoteQuality("nobody.example", hints.QualityDelta{HintsEmitted: 5})
	if got := st.QualityOf("nobody.example"); got.HintsEmitted != 0 {
		t.Errorf("unknown origin grew a ledger: %+v", got)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, want := range []string{
		MetricHintsEmitted + `{origin="` + origin + `"} 10`,
		MetricHintsUsed + `{origin="` + origin + `"} 7`,
		MetricWastedPush + `{origin="` + origin + `"} 1000`,
		MetricHintsEmitted + `{origin="nobody.example"} 5`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if all := st.QualityAll(); len(all) != 1 || all[0].Origin != origin {
		t.Errorf("QualityAll = %+v", all)
	}

	// Nil-store safety.
	var nst *Store
	nst.NoteQuality(origin, hints.QualityDelta{HintsEmitted: 1})
	_ = nst.QualityOf(origin)
	_ = nst.QualityAll()
}

// TestQualityPersistsAcrossRestart proves the efficacy ledger rides the
// snapshot path: accumulate, drain, recover in a second store, and the
// counters carry over exactly — then keep accumulating on top.
func TestQualityPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	site := webpage.NewSite("quality01", webpage.News, 2017)
	origin := site.RootURL().Host
	r := trainedResolver(t, site)
	cfg := Config{TTL: time.Hour, Persist: persist.Options{Dir: dir}}

	st, _, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Register(origin, webpage.PhoneSmall, StaticTrainer(r)); err != nil {
		t.Fatal(err)
	}
	st.NoteQuality(origin, hints.QualityDelta{
		HintsEmitted: 20, HintsUsed: 15, HintsUnused: 5, HintsMissed: 2,
		PushedCount: 4, PushedBytes: 4096, WastedPushBytes: 512,
		PushLeadMs: 80, PushLeads: 2, StaleMs: 3000, StaleObs: 2,
	})
	st.Drain(time.Second)

	st2, rec, err := NewDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Drain(time.Second)
	if len(rec.Tables) != 1 {
		t.Fatalf("recovered %d tables, want 1", len(rec.Tables))
	}
	if got := rec.Tables[0].Quality.HintsUsed; got != 15 {
		t.Fatalf("recovered quality.hints_used = %d, want 15", got)
	}
	q := st2.QualityOf(origin)
	if q.HintsEmitted != 20 || q.HintsUsed != 15 || q.HintsUnused != 5 ||
		q.HintsMissed != 2 || q.PushedBytes != 4096 || q.WastedPushBytes != 512 ||
		q.PushLeadMsSum != 80 || q.PushLeads != 2 || q.StaleServeMsSum != 3000 || q.StaleServes != 2 {
		t.Fatalf("restored ledger: %+v", q)
	}
	// Accumulation continues from the restored base.
	st2.NoteQuality(origin, hints.QualityDelta{HintsUsed: 1})
	if got := st2.QualityOf(origin).HintsUsed; got != 16 {
		t.Errorf("post-restore accumulation: used = %d, want 16", got)
	}
}
