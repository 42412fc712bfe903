#!/usr/bin/env bash
# Doc-rot check for the repo's markdown, in two passes:
#  1. every relative link target in a *.md file must exist on disk.
#     External links (http/https/mailto) and pure in-page anchors (#...)
#     are out of scope.
#  2. every repo path a *.md file cites in an inline code span must exist:
#     the span's first token, minus a trailing `:line` or `:a-b`, when it
#     starts with src/ tests/ bench/ scripts/ docs/ tools/ examples/
#     perfbench/ or .github/ (optionally under build/), or names a root
#     *.json|*.md|*.sh|*.py file. Globs and placeholders (* { <) are
#     skipped. The path may be relative to the repo root or to the citing
#     file. A program (tools/omig_sim, build/bench/bench_policy) counts
#     when its .cpp source exists. CHANGES.md, ROADMAP.md and ISSUE.md
#     skip this pass: their history names deleted files on purpose.
#
# Usage: scripts/check_links.sh
set -euo pipefail
cd "$(dirname "$0")/.."

failures=0
while IFS= read -r -d '' file; do
  dir=$(dirname "$file")
  # Pull out inline markdown link targets: [text](target).
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path=${target%%#*}   # strip an in-page anchor from a file link
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "DEAD LINK: $file -> $target"
      failures=$((failures + 1))
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$file" | sed -E 's/^\]\(//; s/\)$//')

  case "$file" in
    ./CHANGES.md|./ROADMAP.md|./ISSUE.md) continue ;;
  esac
  # Inline code spans outside fenced blocks.
  while IFS= read -r span; do
    token=${span%%[[:space:]]*}
    if [[ $token =~ ^(.+):[0-9]+((-|–)[0-9]+)?$ ]]; then
      token=${BASH_REMATCH[1]}
    fi
    case "$token" in *'*'*|*'{'*|*'<'*) continue ;; esac
    path=${token#build/}
    case "$path" in
      src/*|tests/*|bench/*|scripts/*|docs/*|tools/*|examples/*|perfbench/*|.github/*) ;;
      */*) continue ;;
      *.json|*.md|*.sh|*.py) [ "$path" = "$token" ] || continue ;;
      *) continue ;;
    esac
    if [ -e "$path.cpp" ]; then
      continue  # a program built from a kept source
    elif [ "$path" = "$token" ] && { [ -e "$path" ] || [ -e "$dir/$path" ]; }; then
      continue
    fi
    echo "DEAD CITATION: $file -> \`$span\`"
    failures=$((failures + 1))
  done < <(awk '/^[[:space:]]*```/ { fenced = !fenced; next } !fenced' "$file" |
           grep -oE '`[^`]+`' | sed -E 's/^`//; s/`$//')
done < <(find . -name '*.md' -not -path './build*/*' -not -path './.git/*' -print0)

if [ "$failures" -gt 0 ]; then
  echo "check_links.sh: $failures dead link(s) or citation(s)"
  exit 1
fi
echo "check_links.sh: all relative markdown links and cited paths resolve"
