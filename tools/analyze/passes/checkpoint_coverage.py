"""checkpoint-coverage: every data member of a class that defines
save_state/load_state must be referenced in *both* bodies (directly or
through the class's own methods they call), or carry an explicit
`// analyze: no-checkpoint (<reason>)` marker on (or up to two lines above)
its declaration.

Bug class: a new member added to an evolving solver that nobody adds to the
checkpoint codec. The restart then silently diverges from the uninterrupted
run — exactly the `v_pred_`-style drift the resilience tests only catch if
some test happens to exercise that member across a restart (see
docs/RESILIENCE.md). Runtime bitwise round-trip tests verify the fields that
*are* serialised; only a structural check can see the fields that are not.

A member referenced in save_state but not load_state (or vice versa) is also
flagged: one-sided references are how load-order skew starts.
"""

from __future__ import annotations

from passes import Finding

RULE = "checkpoint-coverage"
MARKERS = {"no-checkpoint", "checkpoint-coverage-ok"}

_SAVE, _LOAD = "save_state", "load_state"


def _id_set(repo, cls, fns) -> set:
    """Identifiers in the bodies, following calls into the class's own
    methods: a save_state that delegates to a shared writer covers what the
    writer touches."""
    out, seen, todo = set(), {fn.name for fn in fns}, list(fns)
    while todo:
        for t in todo.pop().body:
            if t.kind != "id":
                continue
            out.add(t.text)
            if t.text in cls.declared and t.text not in seen:
                seen.add(t.text)
                todo.extend(repo.method_bodies(cls.name, t.text))
    return out


def run(repo) -> list:
    findings: list[Finding] = []
    for fi in repo.files.values():
        for cls in fi.classes:
            if _SAVE not in cls.declared or _LOAD not in cls.declared:
                continue
            save_bodies = repo.method_bodies(cls.name, _SAVE)
            load_bodies = repo.method_bodies(cls.name, _LOAD)
            if not save_bodies or not load_bodies:
                # declared but no body in the indexed set (e.g. interface
                # class); nothing to verify structurally
                continue
            save_ids = _id_set(repo, cls, save_bodies)
            load_ids = _id_set(repo, cls, load_bodies)
            for m in cls.members:
                in_save = m.name in save_ids
                in_load = m.name in load_ids
                if in_save and in_load:
                    continue
                if fi.markers_near(m.line, MARKERS):
                    continue
                if in_save != in_load:
                    where = _LOAD if in_save else _SAVE
                    msg = (f"{cls.name}::{m.name} is referenced in "
                           f"{_SAVE if in_save else _LOAD} but not in {where}: "
                           "one-sided checkpoint access skews the restart codec")
                else:
                    msg = (f"{cls.name}::{m.name} is not referenced in "
                           f"{_SAVE}/{_LOAD}: restart will silently lose this "
                           "state; serialise it or mark the declaration with "
                           "`// analyze: no-checkpoint (<reason>)`")
                findings.append(Finding(RULE, fi.path, m.line, msg,
                                        key=f"{cls.name}::{m.name}"))
    return findings


# ---- self-test fixtures -----------------------------------------------------

_HDR = """#pragma once
namespace resilience { class BlobWriter; class BlobReader; }
"""

SELF_TEST_CASES = [
    ("covered member is clean",
     {"src/a/x.hpp": _HDR + """
class Probe {
public:
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);
private:
  double value_ = 0.0;
};
""",
      "src/a/x.cpp": """
#include "a/x.hpp"
void Probe::save_state(resilience::BlobWriter& w) const { w.pod(value_); }
void Probe::load_state(resilience::BlobReader& r) { r.pod(value_); }
"""},
     set()),

    ("member missing from both bodies is flagged",
     {"src/a/x.hpp": _HDR + """
class Probe {
public:
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);
private:
  double value_ = 0.0;
  double scratch_;
};
""",
      "src/a/x.cpp": """
void Probe::save_state(resilience::BlobWriter& w) const { w.pod(value_); }
void Probe::load_state(resilience::BlobReader& r) { r.pod(value_); }
"""},
     {"Probe::scratch_"}),

    ("member referenced only in save_state is flagged (load-order skew)",
     {"src/a/x.cpp": _HDR.replace("#pragma once\n", "") + """
class Probe {
public:
  void save_state(resilience::BlobWriter& w) const { w.pod(a_); w.pod(b_); }
  void load_state(resilience::BlobReader& r) { r.pod(a_); }
private:
  double a_;
  double b_;
};
"""},
     {"Probe::b_"}),

    ("no-checkpoint marker with a reason suppresses",
     {"src/a/x.hpp": _HDR + """
class Probe {
public:
  void save_state(resilience::BlobWriter& w) const;
  void load_state(resilience::BlobReader& r);
private:
  double value_;
  // analyze: no-checkpoint (rebuilt on demand from value_)
  double cache_;
};
""",
      "src/a/x.cpp": """
void Probe::save_state(resilience::BlobWriter& w) const { w.pod(value_); }
void Probe::load_state(resilience::BlobReader& r) { r.pod(value_); }
"""},
     set()),

    ("marker without a reason does NOT suppress",
     {"src/a/x.cpp": _HDR.replace("#pragma once\n", "") + """
class Probe {
public:
  void save_state(resilience::BlobWriter& w) const { w.pod(v_); }
  void load_state(resilience::BlobReader& r) { r.pod(v_); }
private:
  double v_;
  // analyze: no-checkpoint
  double cache_;
};
"""},
     {"Probe::cache_"}),

    ("mention inside a comment in the body does not count as coverage",
     {"src/a/x.cpp": _HDR.replace("#pragma once\n", "") + """
class Probe {
public:
  // note: cache_ is deliberately not serialised here
  void save_state(resilience::BlobWriter& w) const { w.pod(v_); /* cache_ */ }
  void load_state(resilience::BlobReader& r) { r.pod(v_); }
private:
  double v_;
  double cache_;
};
"""},
     {"Probe::cache_"}),

    ("mention inside a string literal does not count as coverage",
     {"src/a/x.cpp": _HDR.replace("#pragma once\n", "") + """
class Probe {
public:
  void save_state(resilience::BlobWriter& w) const { w.str("cache_"); w.pod(v_); }
  void load_state(resilience::BlobReader& r) { r.pod(v_); (void)"cache_"; }
private:
  double v_;
  double cache_;
};
"""},
     {"Probe::cache_"}),

    ("classes without a save/load pair are not scanned",
     {"src/a/x.hpp": _HDR + """
class Plain {
  double anything_;
};
class SaveOnly {
public:
  void save_state(resilience::BlobWriter& w) const { w.pod(x_); }
private:
  double x_;
  double y_;
};
"""},
     set()),

    ("multi-declarator and grouped members are each checked",
     {"src/a/x.cpp": _HDR.replace("#pragma once\n", "") + """
class Probe {
public:
  void save_state(resilience::BlobWriter& w) const { w.pod(a_); w.pod(c_); }
  void load_state(resilience::BlobReader& r) { r.pod(a_); r.pod(c_); }
private:
  double a_, b_;
  int c_ = 0, d_ = 1;
};
"""},
     {"Probe::b_", "Probe::d_"}),

    ("delegation to the class's own shared writer/reader counts as a reference",
     {"src/a/x.cpp": _HDR.replace("#pragma once\n", "") + """
class Probe {
public:
  void save_state(resilience::BlobWriter& w) const { w.pod(a_); save_extra(w); }
  void load_state(resilience::BlobReader& r) { r.pod(a_); load_extra(r); }
  void save_extra(resilience::BlobWriter& w) const { w.pod(b_); }
  void load_extra(resilience::BlobReader& r) { r.pod(b_); }
private:
  double a_;
  double b_;
};
"""},
     set()),

    ("delegation through a helper call counts as a reference",
     {"src/a/x.cpp": _HDR.replace("#pragma once\n", "") + """
class Inner {
public:
  void save_state(resilience::BlobWriter& w) const { w.pod(z_); }
  void load_state(resilience::BlobReader& r) { r.pod(z_); }
private:
  double z_;
};
class Outer {
public:
  void save_state(resilience::BlobWriter& w) const { inner_.save_state(w); }
  void load_state(resilience::BlobReader& r) { inner_.load_state(r); }
private:
  Inner inner_;
};
"""},
     set()),
]
