package experiments

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"vroom/internal/faults"
	"vroom/internal/runner"
)

// TestMemoHitEqualsFreshRun runs every quick figure on one session, then
// reruns every load the memo holds from its key alone, on caches of its
// own: the result and the fault counts must equal the memo's. It fails
// on a figure that writes into a result the memo shares, and on a key that
// drops an input the load depends on. The figures run under mild faults
// and with ext03 last, so that a key without the regime would hand
// ext03's clean requests a faulted entry.
func TestMemoHitEqualsFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns every load of the quick figures")
	}
	o := QuickOptions()
	o.FaultRegime = faults.RegimeMild
	o = o.fill()
	ids := IDs()
	slices.Reverse(ids)
	if _, _, err := Run(o, ids, func(*Result) {}); err != nil {
		t.Fatal(err)
	}
	caches := runner.NewCaches()
	for k, l := range o.s.loads {
		plan := faultPlan(o.Seed, k.regime, k.site.Name, k.nonce)
		res, err := runner.Run(k.site, k.pol, runner.Options{
			Time: time.Unix(0, k.at).UTC(), Profile: k.profile, Nonce: k.nonce, Faults: plan, Caches: caches,
		})
		if err != nil || l.err != nil {
			t.Fatalf("%+v: fresh run: %v; memo: %v", k, err, l.err)
		}
		if !reflect.DeepEqual(res, l.res) {
			t.Errorf("%s %s nonce %d under %s: the memo's load differs from a fresh run (PLT %v vs %v)",
				k.site.Name, k.pol, k.nonce, k.regime, l.res.PLT, res.PLT)
		}
		if !reflect.DeepEqual(plan.Stats(), l.injected) {
			t.Errorf("%s %s nonce %d under %s: injected faults %v, a fresh run injects %v",
				k.site.Name, k.pol, k.nonce, k.regime, l.injected, plan.Stats())
		}
	}
}

// TestLowerBoundHoldsPerSite pins §2's bound site by site: no policy loads
// a site faster than max(cpu-only PLT, network-only PLT), the loads with a
// free network and with free processing.
func TestLowerBoundHoldsPerSite(t *testing.T) {
	o := QuickOptions()
	o.NewsSites, o.SportsSites = 15, 15
	o = o.fill()
	sites := o.s.newsAndSports()
	cpu, err := o.runCorpus(sites, runner.CPUOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, err := o.runCorpus(sites, runner.NetworkOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range runner.AllPolicies() {
		if pol == runner.CPUOnly || pol == runner.NetworkOnly {
			continue
		}
		rs, err := o.runCorpus(sites, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if bound := max(cpu[i].PLT, net[i].PLT); r.PLT < bound {
				t.Errorf("%s on %s: PLT %v is below the bound %v (cpu-only %v, network-only %v)",
					pol, sites[i].Name, r.PLT, bound, cpu[i].PLT, net[i].PLT)
			}
		}
	}
}
