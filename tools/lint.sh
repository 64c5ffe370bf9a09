#!/usr/bin/env sh
# Source-level lint gate (CI: runs before the build).
#
# Rules:
#   1. Obj.magic is banned everywhere.
#   2. Every module under lib/ has an explicit interface (.mli) —
#      the library surface is always documented and sealed.
#   3. The native multicore layer (lib/native) holds no non-Atomic
#      mutable state: no `mutable` record fields, no `ref` cells.
#      Everything shared is Atomic.t by construction, so any TSan
#      finding is a real bug, not a benign race on bookkeeping.
#   4. The simulator's pure core (lib/shm value/program/event/config)
#      holds no mutable state at all: configurations must stay
#      persistent values so explorers can branch and replay them.
#      Allowlisted exceptions, each with a documented soundness story:
#        - lib/shm/memory.ml — the journaled backend mutates a shared
#          flat array behind a persistent interface (undo journal;
#          see docs/PERFORMANCE.md)
#        - lib/shm/value.ml — weak intern tables for hash-consing
#          (physically mutable, observationally pure)
#   5. Every lib/analyze and lib/spec interface opens with an odoc
#      comment.
#   6. Under bin/, only bin/cli.ml opens files (open_in, open_out) or
#      builds parameters (Agreement.Params.make): it turns Sys_error
#      and Invalid_argument into one-line usage errors (exit 2), so
#      user input never surfaces as an uncaught exception.
#   7. Under lib/obs, only lib/obs/json.ml opens files for reading
#      (In_channel.with_open_*, In_channel.open_*, open_in*): its one
#      reader turns Sys_error into Error and owns the blank-line,
#      path:line, header and torn-final-line policy for every loader.
#   8. One stepping rule: under lib, bin and bench, Config.invoke
#      appears only in lib/shm/config.ml (Config.advance, the rule
#      "invoke if idle, else step" every engine shares) and in callers
#      that must inspect the poised op first — the lower-bound
#      constructions (lib/lowerbound/{alpha,clones,lemma1}.ml) and the
#      optimizer-simulation oracle (lib/fuzz/oracle.ml).
#   9. One completion rule: under lib, bin and bench, the model
#      checkers' completion rule (quantum round-robin, q = 2000, 50,000
#      steps) is written only in lib/shm/schedule.ml (the quantum pick)
#      and lib/spec/counterex.ml (the constants and the loops).
#      Elsewhere no quantum-2000 literal, no `completion_steps` default
#      or argument of 50_000, and no quantum cursor-advance loop (a
#      counter reset to `quantum`); use Spec.Counterex.quantum,
#      Spec.Counterex.completion_steps and Shm.Schedule.quantum_pick.
#  10. Every library export is read somewhere else: the name of each
#      `val` in lib/*/*.mli occurs (as a word, comments included) in
#      some .ml/.mli under lib, bin, bench, examples or test other than
#      its own module's two files.  A value nothing else names is
#      unexported (kept in the .ml) or deleted.  Allowlisted exports,
#      each with its reason, go in `export_allow` as "file:name";
#      it is empty.
#  11. Every bench table runs in CI: each id in the `experiments` list of
#      bench/main.ml (its `table "<id>"` rows) appears in
#      .github/workflows/ci.yml as `bench/main.exe -- table <id>`, so no
#      table is only ever printed.
#  12. No dependency edge that nothing uses: every in-repo library in
#      the `(libraries …)` of lib/*/dune, bin/dune, bench/dune,
#      examples/dune and test/dune is named as a module (`M.…`, or
#      after open/include/=) by some .ml/.mli in that directory, and
#      every package dune-project depends on (apart from ocaml, dune and
#      the :with-test/:with-doc ones) appears in some dune file.
#
# Exits non-zero listing every offender.

set -u
cd "$(dirname "$0")/.."
fail=0

# 1. Obj.magic ------------------------------------------------------
if grep -rn "Obj\.magic" lib bin bench test --include='*.ml' --include='*.mli' 2>/dev/null; then
  echo "lint: Obj.magic is banned" >&2
  fail=1
fi

# 2. missing interfaces --------------------------------------------
for ml in lib/*/*.ml; do
  if [ ! -f "${ml}i" ]; then
    echo "lint: $ml has no interface (${ml}i)" >&2
    fail=1
  fi
done

# 3. non-Atomic mutable state in lib/native ------------------------
if grep -En "(^|[^[:alnum:]_])mutable[[:space:]]" lib/native/*.ml lib/native/*.mli 2>/dev/null; then
  echo "lint: mutable record field in lib/native (use Atomic.t)" >&2
  fail=1
fi
if grep -En "(^|[^_[:alnum:]])ref([^_[:alnum:]]|$)" lib/native/*.ml 2>/dev/null \
  | grep -v "data-race"; then
  echo "lint: ref cell in lib/native (use Atomic.t)" >&2
  fail=1
fi

# 4. mutable state in the shm pure core ----------------------------
# Scope: the modules whose values explorers treat as persistent data.
# (schedule.ml, rng.ml, analysis.ml, exec.ml are deliberately stateful
# drivers and stay out of scope.)
# Allowlist: memory.ml (journaled backend), value.ml (hash-cons table).
shm_pure="lib/shm/program.ml lib/shm/event.ml lib/shm/config.ml"
if grep -En "(^|[^[:alnum:]_])(mutable[[:space:]]|ref([^_[:alnum:]]|$))" $shm_pure 2>/dev/null; then
  echo "lint: mutable state in the shm pure core (keep configurations persistent;" >&2
  echo "      if a backend truly needs mutation, add it to the lint allowlist with" >&2
  echo "      a soundness note like lib/shm/memory.ml)" >&2
  fail=1
fi

# 5. interface documentation in the analysis layers ----------------
# Every lib/analyze and lib/spec interface opens with a top-level
# odoc comment: the static-analysis and model-checking surfaces carry
# their soundness statements in the .mli, and `dune build @doc` only
# checks syntax, not presence.
for mli in lib/analyze/*.mli lib/spec/*.mli; do
  first=$(grep -m1 -v '^[[:space:]]*$' "$mli")
  case "$first" in
    "(**"*) ;;
    *)
      echo "lint: $mli does not open with a top-level odoc comment" >&2
      fail=1
      ;;
  esac
done

# 6. command-line input goes through bin/cli.ml ---------------------
if grep -En "open_in|open_out|Agreement\.Params\.make" bin/*.ml | grep -v "^bin/cli\.ml:"; then
  echo "lint: under bin/, open files and build Params only through bin/cli.ml" >&2
  fail=1
fi

# 7. file reading in lib/obs goes through Obs.Json ------------------
if grep -En "In_channel\.(with_open|open)|\bopen_in(_bin|_gen)?\b" lib/obs/*.ml | grep -v "^lib/obs/json\.ml:"; then
  echo "lint: under lib/obs, open files for reading only through lib/obs/json.ml" >&2
  fail=1
fi

# 8. one stepping rule -----------------------------------------------
if grep -rEn "Config\.invoke" lib bin bench --include='*.ml' \
  | grep -vE "^(lib/shm/config|lib/lowerbound/(alpha|clones|lemma1)|lib/fuzz/oracle)\.ml:"; then
  echo "lint: step processes with Config.advance (Config.invoke only where the" >&2
  echo "      poised op must be inspected first; see the rule 8 allowlist)" >&2
  fail=1
fi

# 9. one completion rule ---------------------------------------------
nd='([^_[:alnum:]]|$)'
if grep -rEn "(quantum|(^|[^_[:alnum:]])q)[^0-9]{0,12}2_?000$nd|completion_steps[[:space:]]*[=:][[:space:]]*50_?000$nd|(:=|<-|else)[[:space:]]*quantum$nd|mod[[:space:]]+n[[:space:]]*,[[:space:]]*quantum$nd" \
  lib bin bench --include='*.ml' \
  | grep -vE "^lib/(shm/schedule|spec/counterex)\.ml:"; then
  echo "lint: the completion rule is written once (lib/shm/schedule.ml picks," >&2
  echo "      lib/spec/counterex.ml holds the constants; see rule 9)" >&2
  fail=1
fi

# 10. exports that something else reads ------------------------------
export_allow=""
sources=$(find lib bin bench examples test -type f \( -name '*.ml' -o -name '*.mli' \) | LC_ALL=C sort)
# shellcheck disable=SC2086 # one path per word; no path has a space
unread=$(awk -v allow="$export_allow" '
    FNR == 1 { own = FILENAME; sub(/\.mli?$/, "", own) }
    FILENAME ~ /^lib\/[^\/]+\/[^\/]+\.mli$/ && match($0, /^[ \t]*val [a-z_][A-Za-z0-9_]*/) {
      v = substr($0, RSTART, RLENGTH); sub(/^[ \t]*val /, "", v)
      vals[FILENAME ":" v] = 1
    }
    {
      n = split($0, w, /[^A-Za-z0-9_]+/)
      for (i = 1; i <= n; i++)
        if (w[i] != "" && !((w[i], own) in seen)) { seen[w[i], own] = 1; mods[w[i]]++ }
    }
    END {
      for (k in vals) {
        split(k, kv, ":"); m = kv[1]; sub(/\.mli$/, "", m)
        if (mods[kv[2]] - ((kv[2], m) in seen) == 0 && index(" " allow " ", " " k " ") == 0)
          print k
      }
    }' $sources | LC_ALL=C sort)
if [ -n "$unread" ]; then
  echo "$unread" | sed 's/^/lint: exported but read nowhere else: /' >&2
  echo "lint: unexport or delete these values (see rule 10)" >&2
  fail=1
fi

# 11. every bench table runs in CI ----------------------------------
bench_ids=$(awk '/^let experiments =/ { on = 1 } on && /^$/ { on = 0 } on' bench/main.ml \
  | sed -n 's/^[[:space:]]*table "\([^"]*\)".*/\1/p')
if [ -z "$bench_ids" ]; then
  echo "lint: no table ids found in the experiments list of bench/main.ml (rule 11)" >&2
  fail=1
fi
for id in $bench_ids; do
  if ! grep -Eq "bench/main\.exe -- table $id( |\$)" .github/workflows/ci.yml; then
    echo "lint: bench table $id has no CI step (bench/main.exe -- table $id)" >&2
    fail=1
  fi
done

# 12. no dead dependency edges --------------------------------------
lib_names=" $(sed -n 's/^[[:space:]]*(name \([a-z_]*\))$/\1/p' lib/*/dune | tr '\n' ' ')"
for f in lib/*/dune bin/dune bench/dune examples/dune test/dune; do
  dir=${f%/dune}
  for l in $(tr '\n' ' ' <"$f" | sed -n 's/.*(libraries \([^)]*\)).*/\1/p'); do
    case "$lib_names" in *" $l "*) ;; *) continue ;; esac
    m=$(echo "$l" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
    if ! grep -Eqs "(^|[^A-Za-z0-9_'.])$m\.[^[:space:]]|(open!?|include|=)[[:space:]]+$m([^A-Za-z0-9_']|\$)" \
      "$dir"/*.ml "$dir"/*.mli; then
      echo "lint: $f links $l, but no .ml/.mli in $dir names $m (rule 12)" >&2
      fail=1
    fi
  done
done
dune_files=$(find . -name dune -not -path './_build/*' -not -path './.git/*')
pkgs=$(awk '/\(depends/ { on = 1; sub(/.*\(depends/, "(") }
    on { print; d += gsub(/\(/, "("); d -= gsub(/\)/, ")"); if (d <= 0) on = 0 }' dune-project \
  | grep -Ev ':with-(test|doc)' | sed -n 's/^[[:space:]]*(\{0,1\}\([a-z][a-z0-9_-]*\).*/\1/p')
for p in $pkgs; do
  case "$p" in ocaml | dune) continue ;; esac
  # shellcheck disable=SC2086 # one path per word; no path has a space
  if ! grep -Eq "(^|[[:space:](])$p([.[:space:])]|\$)" $dune_files; then
    echo "lint: dune-project depends on $p, but no dune file uses it (rule 12)" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "lint: ok"
fi
exit "$fail"
