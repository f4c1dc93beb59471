package browser

import (
	"time"

	"vroom/internal/hints"
	"vroom/internal/webpage"
)

// beginProcessing is invoked when an entry is both required and arrived.
func (l *Load) beginProcessing(e *Entry) {
	if e.processingStarted {
		return
	}
	e.processingStarted = true
	if e.Res == nil {
		// Stale hint or vanished resource: a small error body, nothing to
		// process.
		l.runTask(0, "error-body", func() { l.onEntryDone(e) })
		return
	}
	switch e.Res.Type {
	case webpage.HTML:
		l.processDocument(e)
	case webpage.CSS:
		l.processCSS(e)
	case webpage.JS:
		l.processJS(e)
	default:
		c := MobileCosts()
		l.runTask(l.cost(c.For(e.Res.Type, e.Res.Size)), e.Res.Type.String(), func() { l.onEntryDone(e) })
	}
}

// docStep is one unit of document processing: a parse segment, or a
// synchronous script execution that gates further parsing.
type docStep struct {
	parse  time.Duration // segment duration; used when script == nil
	script *Entry
	// cssGate lists stylesheets declared before the script: real engines
	// block script execution on pending CSSOM construction.
	cssGate []*Entry
}

// processDocument models an HTML document the way browsers load one:
//
//   - a preload scan fires the moment the bytes arrive, requesting every
//     statically declared subresource (scripts, stylesheets, images) ahead
//     of the parser;
//   - parsing then proceeds incrementally, pausing at each synchronous
//     script until that script has arrived, earlier stylesheets have been
//     parsed, and the script has executed — the CPU/network coupling at the
//     core of the paper;
//   - iframes and inline-code references surface only as parsing passes
//     them, and iframe documents begin loading after the embedding parse
//     completes (footnote 4).
func (l *Load) processDocument(e *Entry) {
	doc := &docState{entry: e}
	l.docs[e.URL.String()] = doc

	defer l.setVia(e)()
	refs := webpage.ExtractRefs(e.Res)
	// Preload scan. Gating flags must be set before Require: a resource
	// may already have arrived (hint prefetch, warm cache), in which case
	// Require starts processing immediately and must already know the
	// script's execution is owned by this document's parser.
	var cssSoFar []*Entry
	for _, d := range refs {
		typ := webpage.TypeFromURL(d.URL)
		if typ == webpage.HTML || d.Inline {
			continue
		}
		child := l.Entry(d.URL)
		if typ == webpage.JS {
			if d.Async {
				child.execAsync = true
			} else {
				child.gated = true
			}
		}
		l.Require(d.URL, d.Priority())
	}

	// Build the parse/execute step sequence.
	c := MobileCosts()
	total := l.cost(c.For(webpage.HTML, e.Res.Size))
	bodyLen := len(e.Res.Body)
	if bodyLen == 0 {
		bodyLen = 1
	}
	prevOffset := 0
	for _, d := range refs {
		typ := webpage.TypeFromURL(d.URL)
		switch {
		case typ == webpage.CSS && !d.Inline:
			cssSoFar = append(cssSoFar, l.Entry(d.URL))
		case typ == webpage.JS && !d.Async && !d.Inline:
			seg := segmentCost(total, prevOffset, d.Offset, bodyLen)
			prevOffset = d.Offset
			gate := make([]*Entry, len(cssSoFar))
			copy(gate, cssSoFar)
			doc.steps = append(doc.steps,
				docStep{parse: seg},
				docStep{script: l.Entry(d.URL), cssGate: gate})
		case typ == webpage.HTML:
			doc.iframes = append(doc.iframes, d)
		case d.Inline:
			doc.inline = append(doc.inline, d)
		}
	}
	doc.steps = append(doc.steps, docStep{parse: segmentCost(total, prevOffset, bodyLen, bodyLen)})
	l.advanceDoc(doc)
}

func segmentCost(total time.Duration, from, to, bodyLen int) time.Duration {
	if to < from {
		to = from
	}
	return time.Duration(float64(total) * float64(to-from) / float64(bodyLen))
}

// advanceDoc drives a document's step sequence forward.
func (l *Load) advanceDoc(doc *docState) {
	if doc.running || doc.waiting {
		return
	}
	if doc.idx >= len(doc.steps) {
		l.finishDoc(doc)
		return
	}
	step := doc.steps[doc.idx]
	if step.script == nil {
		doc.running = true
		l.runTask(step.parse, "parse-html", func() {
			doc.running = false
			doc.idx++
			l.advanceDoc(doc)
		})
		return
	}
	e := step.script
	// The parser is blocked: the script must be here...
	if e.State != StateArrived && e.State != StateProcessed {
		doc.waiting = true
		l.onArrivedOrNow(e, func(*Entry) {
			doc.waiting = false
			l.advanceDoc(doc)
		})
		return
	}
	// ...and earlier stylesheets applied (CSSOM blocks execution).
	for _, css := range step.cssGate {
		if css.Required && css.State != StateProcessed {
			doc.waiting = true
			l.onProcessed(css, func() {
				doc.waiting = false
				l.advanceDoc(doc)
			})
			return
		}
	}
	if e.State == StateProcessed {
		doc.idx++
		l.advanceDoc(doc)
		return
	}
	if e.Res == nil {
		// The script's fetch failed terminally: nothing to execute. Wait
		// for its error-body task to retire the entry, then move on — the
		// parser must not hang on a dead script.
		doc.waiting = true
		l.onProcessed(e, func() {
			doc.waiting = false
			l.advanceDoc(doc)
		})
		return
	}
	doc.running = true
	c := MobileCosts()
	gate := step.cssGate
	l.runTask(l.cost(c.For(webpage.JS, e.Res.Size)), "exec-sync-js", func() {
		blocking := l.discoverScriptChildren(e, true)
		// document.write-injected scripts block this parser right after
		// the current script, inheriting its stylesheet gate.
		if len(blocking) > 0 {
			inserted := make([]docStep, 0, len(blocking))
			for _, ch := range blocking {
				inserted = append(inserted, docStep{script: ch, cssGate: gate})
			}
			rest := append(inserted, doc.steps[doc.idx+1:]...)
			doc.steps = append(doc.steps[:doc.idx+1:doc.idx+1], rest...)
		}
		l.onEntryDone(e)
		doc.running = false
		doc.idx++
		l.advanceDoc(doc)
	})
}

// finishDoc completes parsing: inline-code references and iframes surface,
// and the document itself counts as processed.
func (l *Load) finishDoc(doc *docState) {
	if doc.finished {
		return
	}
	doc.finished = true
	defer l.setVia(doc.entry)()
	for _, d := range doc.inline {
		l.Require(d.URL, d.Priority())
	}
	for _, d := range doc.iframes {
		l.Require(d.URL, hints.Low)
	}
	l.onEntryDone(doc.entry)
}

// processJS handles async (non-parser-gated) scripts. Parser-gated scripts
// are executed by advanceDoc instead.
func (l *Load) processJS(e *Entry) {
	if e.gated {
		// Execution order is owned by the document's step sequence;
		// arrival alone does not trigger execution.
		e.processingStarted = false
		return
	}
	c := MobileCosts()
	l.runTask(l.cost(c.For(webpage.JS, e.Res.Size)), "exec-js", func() {
		l.discoverScriptChildren(e, false)
		l.onEntryDone(e)
	})
}

// discoverScriptChildren requires everything a script fetches when it runs,
// returning document.write-injected scripts when the parent ran under a
// document's parser (viaDocPump): those block that parser. A document.write
// from an async script has no parser to block and behaves like an async
// insertion. Flags are set before Require so that an already-arrived child
// is processed under the right ownership.
func (l *Load) discoverScriptChildren(e *Entry, viaDocPump bool) []*Entry {
	defer l.setVia(e)()
	var blocking []*Entry
	for _, d := range webpage.ExtractRefs(e.Res) {
		prio := d.Priority()
		typ := webpage.TypeFromURL(d.URL)
		if typ == webpage.JS {
			child := l.Entry(d.URL)
			if d.Blocking && viaDocPump {
				child.gated = true
				blocking = append(blocking, child)
			} else {
				prio = hints.Semi // dynamically inserted scripts are async
				if !child.gated {
					child.execAsync = true
				}
			}
		}
		l.Require(d.URL, prio)
	}
	return blocking
}

// processCSS parses a stylesheet and requires its url()/@import references.
// The stylesheet counts as applied — unblocking scripts gated on it — only
// once its @import chain is processed too, as in real CSSOM construction.
func (l *Load) processCSS(e *Entry) {
	c := MobileCosts()
	l.runTask(l.cost(c.For(webpage.CSS, e.Res.Size)), "parse-css", func() {
		defer l.setVia(e)()
		var imports []*Entry
		for _, d := range webpage.ExtractRefs(e.Res) {
			child := l.Require(d.URL, d.Priority())
			if webpage.TypeFromURL(d.URL) == webpage.CSS && child != e {
				imports = append(imports, child)
			}
		}
		pending := len(imports)
		if pending == 0 {
			l.onEntryDone(e)
			return
		}
		for _, imp := range imports {
			l.onProcessed(imp, func() {
				pending--
				if pending == 0 {
					l.onEntryDone(e)
				}
			})
		}
	})
}
