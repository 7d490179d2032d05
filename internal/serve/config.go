// Package serve is the congestlbd service layer: a multi-tenant HTTP
// (JSON + SSE) front end over congestlb.Lab. Each tenant — identified by
// an API key — owns a private Lab with its own solve cache, experiment
// pool and quotas, so no tenant can observe or perturb another's work;
// underneath the private caches one shared
// content-addressed read-through tier (congestlb.SharedSolveTier) dedups
// identical solves across tenants, so a graph any tenant already paid to
// solve costs everyone else zero branch-and-bound steps.
//
// Admission control is a channel-fed accept loop in the PipeLineExecutor
// shape: requests are admitted against a per-tenant and a global
// in-flight bound, enqueue onto a bounded channel, and run on a fixed
// pool of executor goroutines. A saturated tenant (or daemon) is turned
// away with 429 and a Retry-After header while other tenants' requests
// proceed. SIGTERM drains: new work is refused with 503, queued and
// running jobs finish, then every tenant Lab is closed via the
// concurrent-safe Lab.Close.
//
// See docs/service.md for the API reference and curl examples.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Default service limits; see Config.
const (
	DefaultMaxInflight       = 16
	DefaultMaxJobsPerTenant  = 4
	DefaultMaxDeadline       = 60 * time.Second
	DefaultRetryAfterSeconds = 1
)

// Quota bounds one tenant's resource use. The zero value means "the
// service defaults" for every field. LoadConfig ignores keys it does not
// know, so a config that still sets the retired per-tenant solver worker
// count loads unchanged and that key has no effect.
type Quota struct {
	// MemoryCacheEntries bounds the tenant's private in-memory solve
	// cache (0 = the cache package default).
	MemoryCacheEntries int `json:"memory_cache_entries,omitempty"`
	// Jobs sets the tenant Lab's experiment worker-pool size used by
	// /v1/experiments (0 = GOMAXPROCS).
	Jobs int `json:"jobs,omitempty"`
	// MaxConcurrentJobs bounds the tenant's admitted-but-unfinished
	// requests; the excess gets 429 (0 = DefaultMaxJobsPerTenant).
	MaxConcurrentJobs int `json:"max_concurrent_jobs,omitempty"`
	// MaxDeadlineMS caps (and, for requests that specify none, supplies)
	// the per-request deadline → context.WithTimeout. 0 = DefaultMaxDeadline.
	MaxDeadlineMS int64 `json:"max_deadline_ms,omitempty"`
}

// maxConcurrent resolves the per-tenant in-flight bound.
func (q Quota) maxConcurrent() int {
	if q.MaxConcurrentJobs > 0 {
		return q.MaxConcurrentJobs
	}
	return DefaultMaxJobsPerTenant
}

// maxDeadline resolves the per-request deadline cap.
func (q Quota) maxDeadline() time.Duration {
	if q.MaxDeadlineMS > 0 {
		return time.Duration(q.MaxDeadlineMS) * time.Millisecond
	}
	return DefaultMaxDeadline
}

// TenantConfig declares one tenant: its name (used in metrics labels and
// job ids), the API key requests authenticate with, resource quotas and
// an optional private disk cache directory.
type TenantConfig struct {
	Name   string `json:"name"`
	APIKey string `json:"api_key"`
	Quota  Quota  `json:"quota"`
	// CacheDir, when set, attaches a persistent disk tier to the
	// tenant's private solve cache. Tenants must not share a directory —
	// cross-tenant dedup is the shared tier's job, with per-tenant
	// attribution the disk tier cannot provide.
	CacheDir string `json:"cache_dir,omitempty"`
}

// Config is the daemon configuration: the tenant set plus global
// admission limits. Zero-valued limits mean the defaults above.
type Config struct {
	Tenants []TenantConfig `json:"tenants"`
	// MaxInflight bounds admitted-but-unfinished jobs across all
	// tenants; the excess gets 429 even when the tenant's own bound has
	// room.
	MaxInflight int `json:"max_inflight,omitempty"`
	// QueueDepth bounds the accept queue between admission and the
	// executors (0 = MaxInflight). A full queue rejects like a full
	// in-flight table.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Executors is the size of the fixed goroutine pool that runs
	// admitted jobs (0 = MaxInflight).
	Executors int `json:"executors,omitempty"`
	// SharedTierEntries bounds the cross-tenant solve tier (0 = the
	// cache package default).
	SharedTierEntries int `json:"shared_tier_entries,omitempty"`
	// RetryAfterSeconds is the Retry-After hint attached to 429/503
	// responses (0 = DefaultRetryAfterSeconds).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// maxInflight resolves the global in-flight bound.
func (c Config) maxInflight() int {
	if c.MaxInflight > 0 {
		return c.MaxInflight
	}
	return DefaultMaxInflight
}

// queueDepth resolves the accept-queue bound.
func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return c.maxInflight()
}

// executors resolves the executor-pool size.
func (c Config) executors() int {
	if c.Executors > 0 {
		return c.Executors
	}
	return c.maxInflight()
}

// retryAfter resolves the backpressure hint.
func (c Config) retryAfter() int {
	if c.RetryAfterSeconds > 0 {
		return c.RetryAfterSeconds
	}
	return DefaultRetryAfterSeconds
}

// Validate rejects configurations the server cannot run: no tenants,
// a tenant without a name or key, or duplicate names/keys.
func (c Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("serve: no tenants configured")
	}
	names := make(map[string]bool, len(c.Tenants))
	keys := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if t.Name == "" || t.APIKey == "" {
			return fmt.Errorf("serve: tenant needs both a name and an api_key (got name=%q)", t.Name)
		}
		if names[t.Name] {
			return fmt.Errorf("serve: duplicate tenant name %q", t.Name)
		}
		if keys[t.APIKey] {
			return fmt.Errorf("serve: duplicate api key (tenant %q)", t.Name)
		}
		names[t.Name], keys[t.APIKey] = true, true
	}
	return nil
}

// LoadConfig reads a JSON Config from path.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("serve: config: %w", err)
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("serve: config %s: %w", path, err)
	}
	return c, nil
}

// ParseTenantFlag parses the -tenant command-line shorthand
// "name:key[:max_concurrent_jobs]" into a TenantConfig.
func ParseTenantFlag(s string) (TenantConfig, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
		return TenantConfig{}, fmt.Errorf("serve: -tenant wants name:key[:max_jobs], got %q", s)
	}
	tc := TenantConfig{Name: parts[0], APIKey: parts[1]}
	if len(parts) == 3 {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 1 {
			return TenantConfig{}, fmt.Errorf("serve: -tenant %q: max_jobs must be a positive integer", s)
		}
		tc.Quota.MaxConcurrentJobs = n
	}
	return tc, nil
}
