# Sourced by bench-pairs.sh and cluster-curve.sh: sibling snapshots of a
# parent ref and of this checkout, so both sides build from directories
# of the same depth and name length (the build directory alone moves the
# rt-* workloads by about 5 %).
#
#   snapshot_sides <root> <parent-ref> <work-dir>
#
# sets sha (the ref's 12-digit commit), parent (<work-dir>/parent-<sha>,
# a `git archive` of the ref, kept between calls; no worktree
# registration to clean up) and change (<work-dir>/change-<sha>, this
# checkout as it stands: its tracked files and its untracked files that
# are not ignored, copied afresh on every call).
snapshot_sides() {
	local root=$1 ref=$2 work=$3
	sha=$(git -C "$root" rev-parse --short=12 "$ref^{commit}")
	parent="$work/parent-$sha"
	if [ ! -f "$parent/go.mod" ]; then
		mkdir -p "$parent"
		git -C "$root" archive "$sha" | tar -x -C "$parent"
	fi
	change="$work/change-$sha"
	rm -rf "$change"
	mkdir -p "$change"
	git -C "$root" ls-files -z --cached --others --exclude-standard |
		(cd "$root" && while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done) |
		tar -C "$root" --null -T - -cf - | tar -x -C "$change"
}
