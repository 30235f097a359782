package experiments

import (
	"fmt"
	"strings"
)

// Report is the rendered output of one experiment: a titled table whose
// rows mirror the paper's figure series or table rows, plus free-form
// notes and the raw numeric series used by the shape-check tests.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Series holds named numeric traces (e.g. per-epoch accuracy) for
	// programmatic assertions and CSV export.
	Series map[string][]float64
}

// NewReport constructs an empty report.
func NewReport(id, title string, header ...string) *Report {
	return &Report{ID: id, Title: title, Header: header, Series: make(map[string][]float64)}
}

// AddRow appends one table row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a free-form note rendered under the table.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// SetSeries stores a named numeric trace.
func (r *Report) SetSeries(name string, values []float64) { r.Series[name] = values }

// Render returns the report as an aligned text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the header and rows as comma-separated values (cells with
// commas are quoted).
func (r *Report) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, r.Header)
	for _, row := range r.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

func fmtPct(v float64) string  { return fmt.Sprintf("%.2f%%", 100*v) }
func fmtNorm(v float64) string { return fmt.Sprintf("%.3f", v) }
