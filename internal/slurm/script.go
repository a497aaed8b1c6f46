package slurm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// ParseBatchScript extracts job parameters from an sbatch script: the
// #SBATCH directive lines plus the srun line's per-task options — the
// format Chronus generates for its benchmark jobs (paper Listing 6):
//
//	#!/bin/bash
//	#SBATCH --nodes=1
//	#SBATCH --ntasks=32
//	#SBATCH --cpu-freq=2200000
//	srun --mpi=pmix_v4 --ntasks-per-core=1 /path/to/xhpcg
//
// Unknown directives are ignored and malformed values are errors, as
// are the directives of features the simulator does not run (--array,
// --dependency, --begin, --mem). Lines and fields are slices of script,
// so parsing allocates nothing but the result.
func ParseBatchScript(script string) (JobDesc, error) {
	desc := JobDesc{ThreadsPerCPU: 1}
	for lineNo, rest, more := 1, script, true; more; lineNo++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "#SBATCH"):
			if err := parseDirective(&desc, line[len("#SBATCH"):]); err != nil {
				return JobDesc{}, fmt.Errorf("slurm: script line %d: %w", lineNo, err)
			}
		case strings.HasPrefix(line, "srun "):
			if err := parseSrunLine(&desc, line[len("srun "):]); err != nil {
				return JobDesc{}, fmt.Errorf("slurm: script line %d: %w", lineNo, err)
			}
		}
	}
	return desc, nil
}

// parseDirective applies the options of one #SBATCH line. An option is
// `key=value`, or a long option followed by its value as the next field
// when that field is not itself an option: `--comment "chronus"`.
func parseDirective(desc *JobDesc, directive string) error {
	tok, rest := nextField(directive)
	for tok != "" {
		key, value, hasValue := strings.Cut(tok, "=")
		next, after := nextField(rest)
		if !hasValue && strings.HasPrefix(key, "--") && next != "" && !strings.HasPrefix(next, "-") {
			value = next
			next, after = nextField(after)
		}
		tok, rest = next, after
		switch key {
		case "--ntasks", "-n":
			n, err := strconv.Atoi(value)
			if err != nil {
				return fmt.Errorf("bad %s value %q", key, value)
			}
			desc.NumTasks = n
		case "--cpu-freq":
			// Slurm accepts a single frequency or min-max.
			lo, hi, found := strings.Cut(value, "-")
			loKHz, err := strconv.Atoi(lo)
			if err != nil {
				return fmt.Errorf("bad --cpu-freq value %q", value)
			}
			desc.MinFreqKHz = loKHz
			desc.MaxFreqKHz = loKHz
			if found {
				hiKHz, err := strconv.Atoi(hi)
				if err != nil {
					return fmt.Errorf("bad --cpu-freq value %q", value)
				}
				desc.MaxFreqKHz = hiKHz
			}
			if desc.MinFreqKHz <= 0 || desc.MaxFreqKHz < desc.MinFreqKHz {
				return fmt.Errorf("bad --cpu-freq range %q", value)
			}
		case "--comment":
			desc.Comment = strings.Trim(value, `"'`)
		case "--job-name", "-J":
			desc.Name = value
		case "--partition", "-p":
			desc.Partition = value
		case "--time", "-t":
			minutes, err := strconv.Atoi(value)
			if err != nil || minutes < 0 || int64(minutes) > math.MaxInt64/int64(time.Minute) {
				return fmt.Errorf("bad --time value %q", value)
			}
			desc.TimeLimit = time.Duration(minutes) * time.Minute
		case "--deadline":
			t, err := time.Parse(time.RFC3339, value)
			if err != nil {
				return fmt.Errorf("bad --deadline value %q", value)
			}
			desc.Deadline = t
		case "--array", "-a", "--dependency", "-d", "--begin", "--mem":
			// Rejected, not ignored like other unknown directives: an
			// array must not run as one job, nor a dependency be dropped.
			return fmt.Errorf("unsupported %s", key)
		case "--nodes", "-N":
			// Single-node simulation: accept and require 1.
			if value != "1" {
				return fmt.Errorf("only --nodes=1 supported, got %q", value)
			}
		}
	}
	return nil
}

// parseSrunLine applies the options of an srun line, given without
// its leading "srun ".
func parseSrunLine(desc *JobDesc, args string) error {
	for tok, rest := nextField(args); tok != ""; tok, rest = nextField(rest) {
		key, value, hasValue := strings.Cut(tok, "=")
		switch key {
		case "--ntasks-per-core":
			if !hasValue {
				return fmt.Errorf("--ntasks-per-core needs a value")
			}
			n, err := strconv.Atoi(value)
			if err != nil {
				return fmt.Errorf("bad --ntasks-per-core value %q", value)
			}
			desc.ThreadsPerCPU = n
		case "--mpi":
			// Accepted, irrelevant to the simulation.
		default:
			if !strings.HasPrefix(tok, "-") {
				desc.BinaryPath = tok
			}
		}
	}
	if desc.BinaryPath == "" {
		return fmt.Errorf("srun line has no executable")
	}
	return nil
}

// nextField returns the first field of s and the rest of s after it,
// splitting exactly as strings.Fields does: at ASCII white space, and
// at unicode.IsSpace runes in the rest of UTF-8 (invalid bytes are not
// space). Both are empty when s holds no field.
func nextField(s string) (field, rest string) {
	start := -1
	for i := 0; i < len(s); {
		space, width := spaceAt(s, i)
		if start < 0 && !space {
			start = i
		} else if start >= 0 && space {
			return s[start:i], s[i:]
		}
		i += width
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// spaceAt reports whether the rune at s[i] is white space, and its width.
func spaceAt(s string, i int) (bool, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r', 1
	}
	r, width := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), width
}

// RenderBatchScript generates the sbatch file Chronus submits for a
// benchmark configuration — the Go port of the paper's Listing 6.
func RenderBatchScript(binaryPath string, cores, freqKHz, threadsPerCore int) string {
	return fmt.Sprintf(`#!/bin/bash
#SBATCH --nodes=1
#SBATCH --ntasks=%d
#SBATCH --cpu-freq=%d

srun --mpi=pmix_v4 --ntasks-per-core=%d %s
`, cores, freqKHz, threadsPerCore, binaryPath)
}
