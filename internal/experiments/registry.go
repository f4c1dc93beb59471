package experiments

import "sort"

// Runner is one reproducible figure. Called on its own it loads on a
// session of its own; Run runs several on one.
type Runner func(Options) (*Result, error)

// Registry maps figure IDs to their runners.
var Registry = map[string]Runner{
	"fig01": Fig01,
	"fig02": Fig02,
	"fig03": Fig03,
	"fig04": Fig04,
	"fig07": Fig07,
	"fig09": Fig09,
	"fig11": Fig11,
	"fig13": Fig13,
	"fig14": Fig14,
	"fig16": Fig16,
	"fig17": Fig17,
	"fig18": Fig18,
	"fig19": Fig19,
	"fig20": Fig20,
	"fig21": Fig21,
	"ext01": Ext01,
	"ext02": Ext02,
	"ext03": Ext03,
}

// IDs returns the registered figure IDs in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
