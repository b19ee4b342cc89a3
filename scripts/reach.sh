#!/usr/bin/env bash
# What ships is what a program links: list every top-level func declared
# in a non-test file under internal/ that no main package (cmd/*,
# examples/*, bench) and no exported function of package pimdnn reaches.
# Each main package, plus a throw-away probe main that references every
# exported func of pimdnn.go, is built with inlining off (so a reached
# function keeps its symbol); the union of their `go tool nm` symbols
# under pimdnn/internal/ (an assembly body links as <name>.abi0 and counts
# for its Go declaration) is the reached set. What remains is reached by
# tests alone, and each such func is listed with its reason in
# scripts/reach.allow. Prints `file:line symbol` per unreached func the
# allowlist does not name, each allowlist entry that is now reached or
# deleted, then the counts; exits 1 when an unreached func is unlisted.
#
# Usage:  scripts/reach.sh   (or `make reach`)
set -euo pipefail

cd "$(dirname "$0")/.."
GO="${GO:-go}"
# Inside the module, so the probe may import pimdnn; dot-prefixed, so
# ./... does not see it.
tmp="$(mktemp -d "$PWD/.reach.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/probe"
{
	echo 'package main'
	echo 'import "pimdnn"'
	echo 'var exported = []any{'
	sed -nE 's/^func ([A-Z][A-Za-z0-9_]*)\(.*/\tpimdnn.\1,/p' pimdnn.go
	echo '}'
	echo 'func main() { println(len(exported)) }'
} >"$tmp/probe/main.go"

for pkg in $("$GO" list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...) "./${tmp#"$PWD"/}/probe"; do
	"$GO" build -gcflags=all=-l -o "$tmp/bin" "$pkg"
	"$GO" tool nm "$tmp/bin"
done | awk '$3 ~ /^pimdnn\/internal\// {
	# A generic func links once per instantiation shape, e.g.
	# dpu.(*CostCache[go.shape.int]).Launch (a shape may hold spaces):
	# dropping the bracketed lists leaves its declared name.
	sym = $0; sub(/^ *[^ ]+ [^ ]+ /, "", sym); sub(/\.abi0$/, "", sym)
	while (gsub(/\[[^][]*\]/, "", sym)) {}
	print sym
}' | sort -u >"$tmp/reached"

# gofmt'd declarations: `func Name(`, `func (r T) Name(`, `func (r *T) Name(`
# in package pimdnn/<dir> link as <dir>.Name, <dir>.T.Name, <dir>.(*T).Name,
# type parameter lists (`Name[K comparable]`, `*T[K]`) dropped.
find internal -name '*.go' ! -name '*_test.go' -print0 | sort -z | xargs -0 grep -n '^func ' |
	awk -v reached="$tmp/reached" -v allow=scripts/reach.allow '
		BEGIN {
			while ((getline s < reached) > 0) live[s] = 1
			while ((getline s < allow) > 0)
				if (s !~ /^(#|$)/) { split(s, f); listed[f[1]] = 1; order[++nAllow] = f[1] }
		}
		{
			split($0, loc, ":")
			pkg = loc[1]; sub(/\/[^\/]*$/, "", pkg)
			decl = $0; sub(/^[^:]*:[^:]*:func /, "", decl)
			recv = ""
			if (decl ~ /^\(/) {
				recv = decl; sub(/\).*/, "", recv); sub(/^\([^ ]* /, "", recv)
				sub(/\[.*/, "", recv) # type parameters
				recv = (recv ~ /^\*/) ? "(" recv ")." : recv "."
				sub(/^\([^)]*\) /, "", decl)
			}
			sub(/\(.*/, "", decl)
			sub(/\[.*/, "", decl)
			sym = "pimdnn/" pkg "." recv decl
			if (sym in live) next
			dead++
			if (sym in listed) { seen[sym] = 1; next }
			print loc[1] ":" loc[2] " " sym " (not in " allow ")"; unlisted++
		}
		END {
			for (i = 1; i <= nAllow; i++)
				if (!(order[i] in seen)) print allow ": " order[i] " is reached or deleted"
			printf "%d unreached of %d funcs, %d of them unlisted; %d allowlist entries\n", dead, NR, unlisted, nAllow
			exit unlisted > 0
		}'
