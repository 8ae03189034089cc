package telemetry

import (
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format: families sorted by name, one HELP/TYPE header
// per family, series sorted within.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, fam := range r.snapshot() {
		head := fam.metrics[0]
		if h := head.help(); h != "" {
			b.WriteString("# HELP ")
			b.WriteString(fam.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(h))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(fam.name)
		b.WriteByte(' ')
		b.WriteString(head.typ())
		b.WriteByte('\n')
		for _, m := range fam.metrics {
			m.write(&b)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP makes a Registry an http.Handler serving its scrape — mount
// it on /metrics of a plaintext operations listener.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	_ = r.WritePrometheus(w)
}

// writeSample renders one exposition line: the series name with
// extraLabel (an already-escaped `k="v"` pair, or "") merged into its
// label block, a space, and the value.
func writeSample(b *strings.Builder, name, extraLabel, value string) {
	if extraLabel == "" {
		b.WriteString(name)
	} else if family, labels := splitName(name); labels == "" {
		b.WriteString(family)
		b.WriteByte('{')
		b.WriteString(extraLabel)
		b.WriteByte('}')
	} else {
		b.WriteString(family)
		b.WriteString(labels[:len(labels)-1]) // drop the closing brace
		b.WriteByte(',')
		b.WriteString(extraLabel)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
