package admission

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultClasses is the three-class SLO table the daemon and the
// experiments start from, mirroring sched.DefaultPriorities: interactive
// traffic has a tight budget and is never shed (a human is waiting and a
// wrong shed is worse than a missed SLO), standard work has an hour and is
// shed when the queue cannot honor it, and batch is the loose sheddable
// overflow tier.
func DefaultClasses() map[string]ClassConfig {
	return map[string]ClassConfig{
		"interactive": {WaitBudgetSec: 600, AlwaysAdmit: true},
		"standard":    {WaitBudgetSec: 3600, Sheddable: true},
		"batch":       {WaitBudgetSec: 4 * 3600, Sheddable: true},
	}
}

// ParseClasses parses a class-table flag value of the form
//
//	name=budget[:always|:shed][:tokens=N],name=budget...
//
// where budget is either a plain number of seconds or a Go duration
// ("45m", "2h"). Zero budget means no wait SLO. ":shed" marks the class
// sheddable, ":always" marks it always-admit (mutually exclusive), and
// ":tokens=N" caps admissions per token window. Example:
//
//	interactive=10m:always,standard=1h:shed,batch=4h:shed:tokens=200
func ParseClasses(spec string) (map[string]ClassConfig, error) {
	out := make(map[string]ClassConfig)
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, rest, ok := strings.Cut(field, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("admission: class spec %q: want name=budget[:flags]", field)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("admission: class %q specified twice", name)
		}
		parts := strings.Split(rest, ":")
		budget, err := parseBudget(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("admission: class %q: %v", name, err)
		}
		cc := ClassConfig{WaitBudgetSec: budget}
		for _, opt := range parts[1:] {
			opt = strings.TrimSpace(opt)
			switch {
			case opt == "shed":
				cc.Sheddable = true
			case opt == "always":
				cc.AlwaysAdmit = true
			case strings.HasPrefix(opt, "tokens="):
				n, err := strconv.ParseInt(opt[len("tokens="):], 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("admission: class %q: bad token budget %q", name, opt)
				}
				cc.TokensPerWindow = n
			default:
				return nil, fmt.Errorf("admission: class %q: unknown option %q", name, opt)
			}
		}
		if cc.Sheddable && cc.AlwaysAdmit {
			return nil, fmt.Errorf("admission: class %q is both sheddable and always-admit", name)
		}
		out[name] = cc
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("admission: empty class spec %q", spec)
	}
	return out, nil
}

// parseBudget accepts plain seconds ("3600") or a Go duration ("1h").
func parseBudget(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("missing wait budget")
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("negative wait budget %d", n)
		}
		return n, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait budget %q (want seconds or duration)", s)
	}
	return int64(d / time.Second), nil
}

// FormatClasses renders a class table back into ParseClasses syntax with
// deterministic (sorted) class order — used for logging the effective
// configuration.
func FormatClasses(classes map[string]ClassConfig) string {
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		cc := classes[name]
		fmt.Fprintf(&b, "%s=%d", name, cc.WaitBudgetSec)
		if cc.AlwaysAdmit {
			b.WriteString(":always")
		}
		if cc.Sheddable {
			b.WriteString(":shed")
		}
		if cc.TokensPerWindow > 0 {
			fmt.Fprintf(&b, ":tokens=%d", cc.TokensPerWindow)
		}
	}
	return b.String()
}
