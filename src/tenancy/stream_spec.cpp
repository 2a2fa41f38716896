#include "tenancy/stream_spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "iosched/pair.hpp"
#include "workloads/benchmarks.hpp"

namespace iosim::tenancy {

namespace {

/// Shortest %g that round-trips the double (same contract as the scenario
/// grammar's seconds_to_string, so canonical text is stable).
std::string num_to_string(double v) {
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

bool fail(std::string* err, std::string msg) {
  if (err != nullptr) *err = std::move(msg);
  return false;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t at = s.find(sep, pos);
    if (at == std::string::npos) {
      out.push_back(s.substr(pos));
      break;
    }
    out.push_back(s.substr(pos, at - pos));
    pos = at + 1;
  }
  return out;
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_int(const std::string& s, int* out) {
  double v = 0.0;
  if (!parse_double(s, &v)) return false;
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) return false;
  *out = i;
  return true;
}

/// Splits "key=value"; returns false when there is no '='.
bool keyval(const std::string& field, std::string* key, std::string* val) {
  const std::size_t eq = field.find('=');
  if (eq == std::string::npos) return false;
  *key = field.substr(0, eq);
  *val = field.substr(eq + 1);
  return true;
}

bool parse_arrive(const std::vector<std::string>& fields, StreamSpec* spec,
                  bool* seen, std::string* err) {
  if (*seen) return fail(err, "stream: duplicate arrive segment");
  *seen = true;
  if (fields.size() < 2) return fail(err, "stream: arrive needs a kind");
  const std::string& kind = fields[1];
  if (kind == "poisson") {
    spec->arrival = ArrivalKind::kPoisson;
    for (std::size_t i = 2; i < fields.size(); ++i) {
      std::string k, v;
      if (!keyval(fields[i], &k, &v)) {
        return fail(err, "stream: bad arrive field '" + fields[i] + "'");
      }
      if (k == "rate") {
        if (!parse_double(v, &spec->rate_hz) || spec->rate_hz <= 0.0) {
          return fail(err, "stream: rate must be a positive number, got '" + v + "'");
        }
      } else if (k == "jobs") {
        if (!parse_int(v, &spec->n_jobs) || spec->n_jobs < 1) {
          return fail(err, "stream: jobs must be a positive integer, got '" + v + "'");
        }
      } else {
        return fail(err, "stream: unknown arrive key '" + k + "'");
      }
    }
    return true;
  }
  if (kind == "trace") {
    spec->arrival = ArrivalKind::kTrace;
    bool have_t = false;
    for (std::size_t i = 2; i < fields.size(); ++i) {
      std::string k, v;
      if (!keyval(fields[i], &k, &v)) {
        return fail(err, "stream: bad arrive field '" + fields[i] + "'");
      }
      if (k != "t") return fail(err, "stream: unknown arrive key '" + k + "'");
      have_t = true;
      double prev = -1.0;
      for (const std::string& tok : split(v, ':')) {
        double t = 0.0;
        if (!parse_double(tok, &t) || t < 0.0) {
          return fail(err, "stream: bad arrival time '" + tok + "'");
        }
        if (t < prev) return fail(err, "stream: arrival times must be sorted");
        prev = t;
        spec->trace_times_s.push_back(t);
      }
    }
    if (!have_t || spec->trace_times_s.empty()) {
      return fail(err, "stream: trace arrivals need t=<t0:t1:...>");
    }
    return true;
  }
  return fail(err, "stream: unknown arrival kind '" + kind + "'");
}

bool parse_class(const std::vector<std::string>& fields, StreamSpec* spec,
                 std::string* err) {
  ClassSpec c;
  bool have_name = false, have_mb = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    std::string k, v;
    if (!keyval(fields[i], &k, &v)) {
      return fail(err, "stream: bad class field '" + fields[i] + "'");
    }
    if (k == "name") {
      if (v.empty()) return fail(err, "stream: empty class name");
      c.name = v;
      have_name = true;
    } else if (k == "wl") {
      const auto w = workloads::by_name(v);
      if (!w) return fail(err, "stream: unknown workload '" + v + "'");
      c.workload = w->name;  // canonical ("wc" -> "wordcount")
    } else if (k == "mb") {
      const std::size_t dash = v.find('-');
      const std::string lo = dash == std::string::npos ? v : v.substr(0, dash);
      const std::string hi = dash == std::string::npos ? v : v.substr(dash + 1);
      if (!parse_int(lo, &c.mb_min) || !parse_int(hi, &c.mb_max) ||
          c.mb_min < 1 || c.mb_max < c.mb_min) {
        return fail(err, "stream: bad class size range '" + v + "'");
      }
      have_mb = true;
    } else if (k == "alpha") {
      if (!parse_double(v, &c.alpha) || c.alpha <= 0.0) {
        return fail(err, "stream: alpha must be positive, got '" + v + "'");
      }
    } else if (k == "weight") {
      if (!parse_double(v, &c.weight) || c.weight <= 0.0) {
        return fail(err, "stream: weight must be positive, got '" + v + "'");
      }
    } else if (k == "prio") {
      if (!parse_int(v, &c.priority)) {
        return fail(err, "stream: bad priority '" + v + "'");
      }
    } else if (k == "share") {
      if (!parse_double(v, &c.share) || c.share < 0.0 || c.share > 1.0) {
        return fail(err, "stream: share must be in [0,1], got '" + v + "'");
      }
    } else if (k == "deadline") {
      if (!parse_double(v, &c.deadline_s) || c.deadline_s < 0.0) {
        return fail(err, "stream: deadline must be >= 0, got '" + v + "'");
      }
    } else if (k == "mix") {
      if (!parse_double(v, &c.mix) || c.mix <= 0.0) {
        return fail(err, "stream: mix must be positive, got '" + v + "'");
      }
    } else {
      return fail(err, "stream: unknown class key '" + k + "'");
    }
  }
  if (!have_name) return fail(err, "stream: class needs name=");
  if (!have_mb) return fail(err, "stream: class needs mb=");
  for (const ClassSpec& other : spec->classes) {
    if (other.name == c.name) {
      return fail(err, "stream: duplicate class name '" + c.name + "'");
    }
  }
  spec->classes.push_back(std::move(c));
  return true;
}

bool parse_admit(const std::vector<std::string>& fields, StreamSpec* spec,
                 bool* seen, std::string* err) {
  if (*seen) return fail(err, "stream: duplicate admit segment");
  *seen = true;
  bool have_active = false;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    std::string k, v;
    if (!keyval(fields[i], &k, &v)) {
      return fail(err, "stream: bad admit field '" + fields[i] + "'");
    }
    if (k == "active") {
      if (!parse_int(v, &spec->max_active) || spec->max_active < 1) {
        return fail(err, "stream: active must be a positive integer, got '" + v + "'");
      }
      have_active = true;
    } else if (k == "queue") {
      if (!parse_int(v, &spec->max_queue) || spec->max_queue < 0) {
        return fail(err, "stream: queue must be >= 0, got '" + v + "'");
      }
    } else if (k == "retries") {
      if (!parse_int(v, &spec->job_retries) || spec->job_retries < 0) {
        return fail(err, "stream: retries must be >= 0, got '" + v + "'");
      }
    } else if (k == "backoff") {
      if (!parse_double(v, &spec->retry_backoff_s) || spec->retry_backoff_s < 0.0) {
        return fail(err, "stream: backoff must be >= 0, got '" + v + "'");
      }
    } else {
      return fail(err, "stream: unknown admit key '" + k + "'");
    }
  }
  if (!have_active) return fail(err, "stream: admit needs active=<n>");
  return true;
}

bool parse_meta(const std::vector<std::string>& fields, StreamSpec* spec,
                bool* seen, std::string* err) {
  if (*seen) return fail(err, "stream: duplicate meta segment");
  *seen = true;
  MetaSpec m;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    std::string k, v;
    if (!keyval(fields[i], &k, &v)) {
      return fail(err, "stream: bad meta field '" + fields[i] + "'");
    }
    if (k == "policy") {
      const auto p = meta_policy_by_name(v);
      if (!p || *p == MetaPolicy::kNone) {
        return fail(err, "stream: unknown meta policy '" + v +
                             "' (static|offline|ucb|egreedy)");
      }
      m.policy = *p;
    } else if (k == "explore") {
      if (!parse_double(v, &m.explore) || m.explore < 0.0 || m.explore > 100.0) {
        return fail(err, "stream: explore must be in [0,100], got '" + v + "'");
      }
    } else if (k == "decay") {
      if (!parse_double(v, &m.decay) || m.decay <= 0.0 || m.decay > 1.0) {
        return fail(err, "stream: decay must be in (0,1], got '" + v + "'");
      }
    } else if (k == "budget") {
      if (!parse_int(v, &m.budget) || m.budget < 1 ||
          m.budget > iosched::kNumSchedulerPairs) {
        return fail(err, "stream: budget must be in 1..16, got '" + v + "'");
      }
    } else if (k == "pair") {
      if (!iosched::SchedulerPair::from_letters(v)) {
        return fail(err, "stream: bad meta pair '" + v + "' (two of n/d/a/c)");
      }
      m.pair = v;
    } else if (k == "profile") {
      if (v.empty()) return fail(err, "stream: empty meta profile class");
      m.profile = v;
    } else {
      return fail(err, "stream: unknown meta key '" + k + "'");
    }
  }
  if (m.policy == MetaPolicy::kNone) {
    return fail(err, "stream: meta needs policy=<static|offline|ucb|egreedy>");
  }
  if (!m.pair.empty() && m.policy != MetaPolicy::kStatic) {
    return fail(err, "stream: meta pair= is only valid with policy=static");
  }
  if (!m.profile.empty() && m.policy != MetaPolicy::kOffline) {
    return fail(err, "stream: meta profile= is only valid with policy=offline");
  }
  if ((m.explore >= 0.0 || m.decay >= 0.0 || m.budget > 0) &&
      (m.policy == MetaPolicy::kStatic || m.policy == MetaPolicy::kOffline)) {
    return fail(err,
                "stream: explore/decay/budget are only valid with ucb|egreedy");
  }
  spec->meta = std::move(m);
  return true;
}

}  // namespace

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kFifo: return "fifo";
    case Policy::kFair: return "fair";
    case Policy::kCapacity: return "capacity";
  }
  return "?";
}

std::optional<Policy> policy_by_name(const std::string& name) {
  if (name == "fifo") return Policy::kFifo;
  if (name == "fair") return Policy::kFair;
  if (name == "capacity") return Policy::kCapacity;
  return std::nullopt;
}

const char* to_string(MetaPolicy p) {
  switch (p) {
    case MetaPolicy::kNone: return "none";
    case MetaPolicy::kStatic: return "static";
    case MetaPolicy::kOffline: return "offline";
    case MetaPolicy::kUcb: return "ucb";
    case MetaPolicy::kEgreedy: return "egreedy";
  }
  return "?";
}

std::optional<MetaPolicy> meta_policy_by_name(const std::string& name) {
  if (name == "none") return MetaPolicy::kNone;
  if (name == "static") return MetaPolicy::kStatic;
  if (name == "offline") return MetaPolicy::kOffline;
  if (name == "ucb") return MetaPolicy::kUcb;
  if (name == "egreedy") return MetaPolicy::kEgreedy;
  return std::nullopt;
}

std::optional<StreamSpec> StreamSpec::parse(const std::string& text,
                                            std::string* err) {
  StreamSpec spec;
  spec.n_jobs = 0;  // defaults re-established by the arrive segment
  bool seen_arrive = false, seen_policy = false, seen_admit = false,
       seen_meta = false;
  for (const std::string& seg : split(text, ';')) {
    if (seg.empty()) {
      fail(err, "stream: empty segment");
      return std::nullopt;
    }
    const auto fields = split(seg, ',');
    const std::string& kind = fields[0];
    if (kind == "arrive") {
      if (!parse_arrive(fields, &spec, &seen_arrive, err)) return std::nullopt;
    } else if (kind == "class") {
      if (!parse_class(fields, &spec, err)) return std::nullopt;
    } else if (kind == "admit") {
      if (!parse_admit(fields, &spec, &seen_admit, err)) return std::nullopt;
    } else if (kind == "meta") {
      if (!parse_meta(fields, &spec, &seen_meta, err)) return std::nullopt;
    } else if (kind == "policy") {
      if (seen_policy) {
        fail(err, "stream: duplicate policy segment");
        return std::nullopt;
      }
      seen_policy = true;
      if (fields.size() != 2) {
        fail(err, "stream: policy takes exactly one value");
        return std::nullopt;
      }
      const auto p = policy_by_name(fields[1]);
      if (!p) {
        fail(err, "stream: unknown policy '" + fields[1] + "'");
        return std::nullopt;
      }
      spec.policy = *p;
    } else {
      fail(err, "stream: unknown segment kind '" + kind + "'");
      return std::nullopt;
    }
  }
  if (!seen_arrive) {
    fail(err, "stream: missing arrive segment");
    return std::nullopt;
  }
  if (spec.arrival == ArrivalKind::kPoisson && spec.n_jobs < 1) {
    fail(err, "stream: poisson arrivals need jobs=<n>");
    return std::nullopt;
  }
  if (spec.classes.empty()) {
    fail(err, "stream: at least one class segment required");
    return std::nullopt;
  }
  if (!spec.meta.profile.empty()) {
    // Checked after the loop so a meta segment may precede the class list.
    bool found = false;
    for (const ClassSpec& c : spec.classes) found = found || c.name == spec.meta.profile;
    if (!found) {
      fail(err, "stream: meta profile names unknown class '" + spec.meta.profile + "'");
      return std::nullopt;
    }
  }
  return spec;
}

std::string StreamSpec::to_string() const {
  std::string s = "arrive,";
  if (arrival == ArrivalKind::kPoisson) {
    s += "poisson,rate=" + num_to_string(rate_hz) + ",jobs=" +
         std::to_string(n_jobs);
  } else {
    s += "trace,t=";
    for (std::size_t i = 0; i < trace_times_s.size(); ++i) {
      if (i > 0) s += ':';
      s += num_to_string(trace_times_s[i]);
    }
  }
  for (const ClassSpec& c : classes) {
    s += ";class,name=" + c.name + ",wl=" + c.workload + ",mb=" +
         std::to_string(c.mb_min) + "-" + std::to_string(c.mb_max) +
         ",alpha=" + num_to_string(c.alpha) +
         ",weight=" + num_to_string(c.weight) +
         ",prio=" + std::to_string(c.priority) +
         ",share=" + num_to_string(c.share) +
         ",deadline=" + num_to_string(c.deadline_s) +
         ",mix=" + num_to_string(c.mix);
  }
  if (max_active > 0) {
    s += ";admit,active=" + std::to_string(max_active) +
         ",queue=" + std::to_string(max_queue);
    if (job_retries > 0) s += ",retries=" + std::to_string(job_retries);
    if (retry_backoff_s != 5.0) s += ",backoff=" + num_to_string(retry_backoff_s);
  }
  // Rendered only when enabled, so meta-free streams keep their canonical
  // text — and therefore every scenario fingerprint and pinned digest —
  // unchanged. Optional fields render only when explicitly set (the parse
  // sentinels survive the round trip).
  if (meta.enabled()) {
    s += ";meta,policy=";
    s += tenancy::to_string(meta.policy);
    if (meta.explore >= 0.0) s += ",explore=" + num_to_string(meta.explore);
    if (meta.decay >= 0.0) s += ",decay=" + num_to_string(meta.decay);
    if (meta.budget > 0) s += ",budget=" + std::to_string(meta.budget);
    if (!meta.pair.empty()) s += ",pair=" + meta.pair;
    if (!meta.profile.empty()) s += ",profile=" + meta.profile;
  }
  s += ";policy,";
  s += tenancy::to_string(policy);
  return s;
}

}  // namespace iosim::tenancy
