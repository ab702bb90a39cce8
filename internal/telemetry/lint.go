package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var validLabel = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// LintReport is the outcome of parsing a Prometheus text exposition.
type LintReport struct {
	// Families maps each declared family name to its TYPE.
	Families map[string]string
	// Series holds every parsed sample's full name (including _bucket/_sum/
	// _count suffixes), with occurrence counts per exact labelset.
	Series map[string]int
	// Problems lists every format violation found, with line numbers.
	Problems []string
}

// HasSeries reports whether any sample with the given name was scraped.
func (r *LintReport) HasSeries(name string) bool { return r.Series[name] > 0 }

// HasFamily reports whether a family (HELP/TYPE pair) was declared.
func (r *LintReport) HasFamily(name string) bool { _, ok := r.Families[name]; return ok }

type lintFamily struct {
	kind    string
	help    bool
	samples bool
	// histogram bookkeeping, per non-le labelset key
	buckets map[string][]bucketSample
	sums    map[string]bool
	counts  map[string]bool
}

type bucketSample struct {
	le  float64
	val float64
}

// Lint parses a Prometheus text-format exposition and checks it
// structurally: HELP/TYPE declared once and before any sample, every sample
// attributable to a typed family, valid metric and label names, well-formed
// label escaping, parseable values, no duplicate series, and — for
// histograms — a +Inf bucket, _sum and _count per labelset with cumulative
// bucket counts that never decrease. It returns a report; a scrape is clean
// when Problems is empty. The parser is deliberately strict: it exists to
// keep this repository's exposition consumable by real scrapers, not to
// accept everything Prometheus would.
func Lint(r io.Reader) (*LintReport, error) {
	rep := &LintReport{Families: make(map[string]string), Series: make(map[string]int)}
	fams := make(map[string]*lintFamily)
	problem := func(line int, format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}
	fam := func(name string) *lintFamily {
		f := fams[name]
		if f == nil {
			f = &lintFamily{buckets: make(map[string][]bucketSample), sums: make(map[string]bool), counts: make(map[string]bool)}
			fams[name] = f
		}
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validName.MatchString(name) {
				problem(ln, "invalid metric name %q in %s", name, fields[1])
				continue
			}
			f := fam(name)
			switch fields[1] {
			case "HELP":
				if f.help {
					problem(ln, "duplicate HELP for %s", name)
				}
				if f.samples {
					problem(ln, "HELP for %s after its samples", name)
				}
				f.help = true
			case "TYPE":
				kind := ""
				if len(fields) == 4 {
					kind = fields[3]
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					problem(ln, "unknown TYPE %q for %s", kind, name)
					continue
				}
				if f.kind != "" {
					problem(ln, "duplicate TYPE for %s", name)
				}
				if f.samples {
					problem(ln, "TYPE for %s after its samples", name)
				}
				f.kind = kind
				rep.Families[name] = kind
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			problem(ln, "%v", err)
			continue
		}
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, s)
			if trimmed != name {
				if bf, ok := fams[trimmed]; ok && (bf.kind == "histogram" || bf.kind == "summary") {
					base, suffix = trimmed, s
				}
				break
			}
		}
		f, ok := fams[base]
		if !ok || f.kind == "" {
			problem(ln, "sample %s has no preceding TYPE", name)
			f = fam(base)
		}
		f.samples = true

		// Canonical series identity: name plus sorted label pairs.
		pairs := make([]string, 0, len(labels))
		seenLabel := make(map[string]bool, len(labels))
		le := ""
		for _, kv := range labels {
			if !validLabel.MatchString(kv[0]) {
				problem(ln, "invalid label name %q on %s", kv[0], name)
			}
			if seenLabel[kv[0]] {
				problem(ln, "duplicate label %q on %s", kv[0], name)
			}
			seenLabel[kv[0]] = true
			if kv[0] == "le" && suffix == "_bucket" {
				le = kv[1]
				continue // le is positional within a histogram, not identity
			}
			pairs = append(pairs, kv[0]+"="+kv[1])
		}
		sort.Strings(pairs)
		setKey := strings.Join(pairs, ",")
		seriesKey := name + "{" + setKey
		if suffix == "_bucket" {
			seriesKey += ",le=" + le
		}
		seriesKey += "}"
		rep.Series[name]++
		if prev := rep.Series[seriesKey]; prev > 0 {
			problem(ln, "duplicate series %s", seriesKey)
		}
		rep.Series[seriesKey]++

		if f.kind == "histogram" {
			switch suffix {
			case "_bucket":
				if le == "" {
					problem(ln, "histogram bucket %s missing le label", name)
				} else {
					bound, err := parseFloat(le)
					if err != nil {
						problem(ln, "histogram %s has unparseable le %q", base, le)
					} else {
						f.buckets[setKey] = append(f.buckets[setKey], bucketSample{bound, value})
					}
				}
			case "_sum":
				f.sums[setKey] = true
			case "_count":
				f.counts[setKey] = true
			default:
				problem(ln, "histogram %s has bare sample %s", base, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}

	// Histogram completeness and monotonicity, per labelset.
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if f.kind != "histogram" || !f.samples {
			continue
		}
		sets := make([]string, 0, len(f.buckets))
		for s := range f.buckets {
			sets = append(sets, s)
		}
		sort.Strings(sets)
		for _, set := range sets {
			bs := f.buckets[set]
			hasInf := false
			for i, b := range bs {
				if math.IsInf(b.le, 1) {
					hasInf = true
				}
				if i > 0 {
					if bs[i].le <= bs[i-1].le {
						rep.Problems = append(rep.Problems, fmt.Sprintf("histogram %s{%s}: le not increasing at %g", n, set, bs[i].le))
					}
					if bs[i].val < bs[i-1].val {
						rep.Problems = append(rep.Problems, fmt.Sprintf("histogram %s{%s}: bucket counts decrease at le=%g", n, set, bs[i].le))
					}
				}
			}
			if !hasInf {
				rep.Problems = append(rep.Problems, fmt.Sprintf("histogram %s{%s}: no le=\"+Inf\" bucket", n, set))
			}
			if !f.sums[set] {
				rep.Problems = append(rep.Problems, fmt.Sprintf("histogram %s{%s}: missing _sum", n, set))
			}
			if !f.counts[set] {
				rep.Problems = append(rep.Problems, fmt.Sprintf("histogram %s{%s}: missing _count", n, set))
			}
		}
	}
	return rep, nil
}

// parseSample parses one exposition sample line:
//
//	name{label="value",...} value [timestamp]
//
// Label values are unescaped (\\, \", \n); a raw quote, unterminated label
// block or unparseable value is an error.
func parseSample(line string) (name string, labels [][2]string, value float64, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	name = line[:i]
	if !validName.MatchString(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			for i < len(line) && (line[i] == ',' || line[i] == ' ') {
				i++
			}
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			start := i
			for i < len(line) && line[i] != '=' {
				i++
			}
			if i >= len(line) {
				return "", nil, 0, fmt.Errorf("unterminated label block")
			}
			lname := line[start:i]
			i++ // '='
			if i >= len(line) || line[i] != '"' {
				return "", nil, 0, fmt.Errorf("label %q value not quoted", lname)
			}
			i++
			var val strings.Builder
			closed := false
			for i < len(line) {
				c := line[i]
				if c == '\\' {
					if i+1 >= len(line) {
						return "", nil, 0, fmt.Errorf("dangling escape in label %q", lname)
					}
					switch line[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c in label %q", line[i+1], lname)
					}
					i += 2
					continue
				}
				if c == '"' {
					i++
					closed = true
					break
				}
				val.WriteByte(c)
				i++
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated value for label %q", lname)
			}
			labels = append(labels, [2]string{lname, val.String()})
		}
	}
	rest := strings.Fields(line[i:])
	if len(rest) < 1 || len(rest) > 2 {
		return "", nil, 0, fmt.Errorf("want 'value [timestamp]' after %s, got %q", name, strings.TrimSpace(line[i:]))
	}
	value, err = parseFloat(rest[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q for %s", rest[0], name)
	}
	return name, labels, value, nil
}

// parseFloat is strconv.ParseFloat, which natively accepts the exposition
// format's "+Inf", "-Inf" and "NaN" spellings.
func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}
