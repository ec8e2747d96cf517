package stats

import (
	"fmt"
	"strconv"
	"strings"
)

// Table renders aligned plain-text tables in the style of the paper's
// result tables. Cells are strings; use Addf for formatted values.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row of pre-formatted cells. Short rows are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Addf appends a row, formatting each value: strings pass through,
// float64s render with %.2f, sim-style percentages are up to the caller.
func (t *Table) Addf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.2f", v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.AddRow(row...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the contents of row r, column c.
func (t *Table) Cell(r, c int) string { return t.rows[r][c] }

// Row is one machine-readable headline quantity extracted from a
// rendered table: the row's label, the column it came from, and the
// numeric value. It is the unit the benchmark harness serializes for
// regression tracking.
type Row struct {
	Table  string  `json:"table,omitempty"`
	Label  string  `json:"label"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

// NumericRows flattens every numeric cell of the table into Rows. The
// non-numeric cells of each row (scheme, policy, configuration names)
// join to form the label; each numeric cell becomes one Row keyed by its
// column header. Cells with a trailing %% or x unit parse as their
// numeric part.
func (t *Table) NumericRows() []Row {
	title := t.Title
	if i := strings.IndexByte(title, '\n'); i >= 0 {
		title = title[:i]
	}
	var out []Row
	for _, row := range t.rows {
		var labels []string
		var vals []Row
		for c, cell := range row {
			if v, ok := parseNumeric(cell); ok {
				metric := ""
				if c < len(t.headers) {
					metric = t.headers[c]
				}
				vals = append(vals, Row{Table: title, Metric: metric, Value: v})
			} else if cell != "" {
				labels = append(labels, cell)
			}
		}
		label := strings.Join(labels, " ")
		for i := range vals {
			vals[i].Label = label
		}
		out = append(out, vals...)
	}
	return out
}

// parseNumeric parses a table cell as a float, accepting a trailing unit
// suffix ("%", "x", "s", "ms") the formatters append.
func parseNumeric(cell string) (float64, bool) {
	s := strings.TrimSpace(cell)
	for _, suffix := range []string{"ms", "%", "x", "s"} {
		if strings.HasSuffix(s, suffix) && len(s) > len(suffix) {
			s = strings.TrimSuffix(s, suffix)
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Bars renders labelled values as a horizontal ASCII bar chart, scaled
// to the largest value — the terminal stand-in for the paper's bar
// figures.
func Bars(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic("stats: Bars with mismatched labels/values")
	}
	if width <= 0 {
		width = 50
	}
	var max float64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	for i, l := range labels {
		n := 0
		if max > 0 {
			n = int(values[i] / max * float64(width))
		}
		fmt.Fprintf(&b, "%-*s %s %.0f\n", labelW, l, strings.Repeat("#", n), values[i])
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table, with
// the title (if any) as a bold caption line.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", strings.ReplaceAll(t.Title, "\n", " "))
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	b.WriteString("|")
	for range t.headers {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
