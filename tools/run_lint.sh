#!/usr/bin/env bash
# Static-analysis smoke run, wired into ctest as `tools_lint_smoke`:
#
#   1. generates a skeleton component set with `compose -generateCompFiles`
#      and checks it lints clean under `peppher-lint --werror`;
#   2. seeds a signature fault into the generated sources and checks the
#      lint catches it (stable code PL002, non-zero exit);
#   3. checks the JSON and SARIF renderers emit parseable output;
#   4. runs the coherence verifier (peppher-verify) over a control-flow
#      main module: a correct one must pass `--verify --werror`, and a
#      seeded branch-divergent initialisation must be caught as PL060,
#      and a <composition> naming an unknown scheduler policy as PL000 at
#      that element's line and column;
#   5. runs the distributed coherence verifier over a partitioned
#      stencil main module against a two-node cluster profile: a correct
#      exchange/gather protocol must pass `--cluster --werror`, a seeded
#      too-narrow halo must be caught as PL080, and a malformed cluster
#      profile must be rejected with a located parse error (exit 2);
#   6. runs the trace analyzer (peppher-perf): a well-sized recording must
#      analyze clean, a deliberately mis-sized one must fail --werror with
#      a PF001 device-imbalance finding, --explain must know the code, and
#      a truncated trace must be rejected with a located parse error;
#   7. checks the static-composition flags of peppher-perf: a lookahead
#      training run must write a dispatch table, and a replay run must
#      accept it and train a second one (that the replay reproduces the
#      trained placements is LookaheadReplay.ReplayReproducesTheTrainedMajorities);
#   8. runs the static cost predictor (peppher-predict): models recorded
#      from short ODE runs must predict a fixture repository clean under
#      --werror, a seeded dead variant must be caught as PL070, the
#      dispatch table predict exports into the fixture must lint clean
#      under --werror while a stale entry is caught as PL024 and a
#      malformed line as PL000 at its line, and a corrupted .model file
#      must be rejected with a located parse error;
#   9. if clang-tidy is installed and the build exported
#      compile_commands.json, runs it over src/analyze with the repo's
#      .clang-tidy configuration (advisory: failures are reported but do
#      not fail the smoke run, since the installed clang-tidy version
#      varies).
#
# Usage: tools/run_lint.sh [compose-binary] [peppher-lint-binary] \
#                          [perf-binary] [predict-binary]
# Defaults assume the standard build tree:
# build/tools/{compose,peppher-lint,peppher-perf,peppher-predict}.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
compose_bin="${1:-${repo_root}/build/tools/compose}"
lint_bin="${2:-${repo_root}/build/tools/peppher-lint}"
perf_bin="${3:-${repo_root}/build/tools/peppher-perf}"
predict_bin="${4:-${repo_root}/build/tools/peppher-predict}"

for bin in "${compose_bin}" "${lint_bin}" "${perf_bin}" "${predict_bin}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "run_lint.sh: missing binary '${bin}' (build the project first)" >&2
    exit 1
  fi
done

workdir="$(mktemp -d "${TMPDIR:-/tmp}/peppher_lint_smoke.XXXXXX")"
trap 'rm -rf "${workdir}"' EXIT

echo "== generating a skeleton component set"
cat > "${workdir}/spmv.h" <<'EOF'
void spmv(const float* values, const int* colidx, const int* rowptr,
          float* y, const float* x, int nrows);
EOF
"${compose_bin}" "-generateCompFiles=${workdir}/spmv.h" "-outdir=${workdir}" \
  > /dev/null

echo "== clean set must pass peppher-lint --werror"
"${lint_bin}" --werror "${workdir}"

echo "== seeded signature fault must be caught as PL002"
sed -i 's/float\* y/double* y/' "${workdir}/spmv/cpu/spmv_cpu.cpp"
if "${lint_bin}" "${workdir}" > "${workdir}/findings.txt"; then
  echo "run_lint.sh: lint accepted a broken signature" >&2
  cat "${workdir}/findings.txt" >&2
  exit 1
fi
grep -q "PL002" "${workdir}/findings.txt"

echo "== JSON and SARIF outputs must be valid"
# The tool exits 1 while findings are present; only the output is under test.
"${lint_bin}" --format=json "${workdir}" > "${workdir}/out.json" || true
"${lint_bin}" --format=sarif "${workdir}" > "${workdir}/out.sarif" || true
if command -v python3 > /dev/null; then
  python3 -m json.tool < "${workdir}/out.json" > /dev/null
  python3 -m json.tool < "${workdir}/out.sarif" > /dev/null
else
  grep -q "PL002" "${workdir}/out.json"
  grep -q "2.1.0" "${workdir}/out.sarif"
fi

echo "== coherence verifier: clean control-flow main must pass --verify --werror"
verifydir="${workdir}/verify"
mkdir -p "${verifydir}"
cat > "${verifydir}/init.xml" <<'EOF'
<peppher-interface name="init">
  <function returnType="void">
    <param name="n" type="int" accessMode="read"/>
    <param name="y" type="float*" accessMode="write" size="n"/>
  </function>
</peppher-interface>
EOF
cat > "${verifydir}/consume.xml" <<'EOF'
<peppher-interface name="consume">
  <function returnType="void">
    <param name="n" type="int" accessMode="read"/>
    <param name="x" type="const float*" accessMode="read" size="n"/>
  </function>
</peppher-interface>
EOF
cat > "${verifydir}/init_cpu.xml" <<'EOF'
<peppher-implementation name="init_cpu" interface="init">
  <platform language="cpu"/>
</peppher-implementation>
EOF
cat > "${verifydir}/consume_cpu.xml" <<'EOF'
<peppher-implementation name="consume_cpu" interface="consume">
  <platform language="cpu"/>
</peppher-implementation>
EOF
cat > "${verifydir}/main.xml" <<'EOF'
<peppher-main name="verify_smoke" source="main.cpp">
  <calls>
    <call interface="init"><arg param="y" data="v"/></call>
    <loop count="4">
      <if>
        <call interface="consume"><arg param="x" data="v"/></call>
      <else>
        <call interface="consume"><arg param="x" data="v"/></call>
      </else>
      </if>
    </loop>
  </calls>
</peppher-main>
EOF
"${lint_bin}" --verify --werror --no-sources "${verifydir}"

echo "== seeded branch-divergent initialisation must be caught as PL060"
cat > "${verifydir}/main.xml" <<'EOF'
<peppher-main name="verify_smoke" source="main.cpp">
  <calls>
    <if>
      <call interface="init"><arg param="y" data="v"/></call>
    </if>
    <call interface="consume"><arg param="x" data="v"/></call>
  </calls>
</peppher-main>
EOF
if "${lint_bin}" --werror --no-sources "${verifydir}" \
    > "${workdir}/verify_findings.txt"; then
  echo "run_lint.sh: verifier accepted a branch-divergent initialisation" >&2
  cat "${workdir}/verify_findings.txt" >&2
  exit 1
fi
grep -q "PL060" "${workdir}/verify_findings.txt"

echo "== an unknown scheduler policy must be caught as PL000 at its element"
cat > "${verifydir}/main.xml" <<'EOF'
<peppher-main name="verify_smoke" source="main.cpp">
  <uses interface="init"/>
  <composition scheduler='ws'/>
</peppher-main>
EOF
if "${lint_bin}" --werror --no-sources "${verifydir}" \
    > "${workdir}/verify_findings.txt"; then
  echo "run_lint.sh: lint accepted an unknown scheduler policy" >&2
  exit 1
fi
grep -q "PL000" "${workdir}/verify_findings.txt"
grep -q "line 3, column 3" "${workdir}/verify_findings.txt"

echo "== distributed verifier: clean stencil protocol must pass --cluster --werror"
clusterdir="${workdir}/cluster"
mkdir -p "${clusterdir}"
cp "${verifydir}/init.xml" "${verifydir}/consume.xml" \
   "${verifydir}/init_cpu.xml" "${verifydir}/consume_cpu.xml" "${clusterdir}/"
cat > "${workdir}/testbed.cluster" <<'EOF'
peppher-cluster v1
name smoke
internode latency_us 50 bandwidth_gbs 1.25
node 0 machine c2050 cpu_cores 4
node 1 machine c2050 cpu_cores 4
end
EOF
cat > "${clusterdir}/main.xml" <<'EOF'
<peppher-main name="cluster_smoke" source="main.cpp">
  <calls>
    <call interface="init"><arg param="y" data="u"/></call>
    <partitioned data="u" nodes="2" halo="1"/>
    <exchange data="u"/>
    <call interface="consume" node="0" radius="1">
      <arg param="x" data="u"/>
    </call>
    <call interface="consume" node="1" radius="1">
      <arg param="x" data="u"/>
    </call>
    <gather data="u"/>
  </calls>
</peppher-main>
EOF
"${lint_bin}" "--cluster=${workdir}/testbed.cluster" --werror --no-sources \
  "${clusterdir}"

echo "== seeded too-narrow halo must be caught as PL080"
sed -i 's/halo="1"/halo="0"/' "${clusterdir}/main.xml"
if "${lint_bin}" "--cluster=${workdir}/testbed.cluster" --werror --no-sources \
    "${clusterdir}" > "${workdir}/cluster_findings.txt"; then
  echo "run_lint.sh: verifier accepted a halo narrower than the radius" >&2
  cat "${workdir}/cluster_findings.txt" >&2
  exit 1
fi
grep -q "PL080" "${workdir}/cluster_findings.txt"

echo "== malformed cluster profile must fail with a located parse error"
sed 's/bandwidth_gbs 1.25/bandwidth_gbs -1.25/' "${workdir}/testbed.cluster" \
  > "${workdir}/broken.cluster"
set +e
"${lint_bin}" "--cluster=${workdir}/broken.cluster" --no-sources \
  "${clusterdir}" > "${workdir}/cluster_parse.txt" 2>&1
cluster_status=$?
set -e
if [[ "${cluster_status}" -ne 2 ]]; then
  echo "run_lint.sh: malformed profile exited ${cluster_status}, expected 2" >&2
  cat "${workdir}/cluster_parse.txt" >&2
  exit 1
fi
grep -q "broken.cluster" "${workdir}/cluster_parse.txt"
grep -Eq "line [0-9]+, column [0-9]+" "${workdir}/cluster_parse.txt"

echo "== trace analyzer: a well-sized recording must analyze clean"
"${perf_bin}" --record=ode "--out=${workdir}/trace.json" > /dev/null
"${perf_bin}" "${workdir}/trace.json" > /dev/null

echo "== mis-sized recording must fail --werror with PF001"
"${perf_bin}" --record=ode --machine=cpu8 --force=cpu --scheduler=dmda \
  "--out=${workdir}/bad_trace.json" > /dev/null
if "${perf_bin}" --werror "${workdir}/bad_trace.json" \
    > "${workdir}/perf_findings.txt"; then
  echo "run_lint.sh: analyzer accepted a mis-sized machine profile" >&2
  cat "${workdir}/perf_findings.txt" >&2
  exit 1
fi
grep -q "PF001" "${workdir}/perf_findings.txt"

echo "== --explain must know the PF codes"
"${perf_bin}" --explain=PF001 | grep -q "PF001"

echo "== truncated trace must be rejected with a located parse error"
head -c 200 "${workdir}/trace.json" > "${workdir}/truncated.json"
if "${perf_bin}" "${workdir}/truncated.json" \
    > "${workdir}/perf_parse.txt" 2>&1; then
  echo "run_lint.sh: analyzer accepted a truncated trace" >&2
  exit 1
fi
grep -Eq "truncated.json:[0-9]+:[0-9]+" "${workdir}/perf_parse.txt"

echo "== static composition: lookahead training must write a dispatch table"
"${perf_bin}" --record=ode --scheduler=lookahead \
  "--dispatch-out=${workdir}/train.dispatch" \
  "--out=${workdir}/train_trace.json" > /dev/null
grep -q "^peppher-dispatch v1" "${workdir}/train.dispatch"

echo "== replaying the table must accept it and train a second one"
"${perf_bin}" --record=ode --scheduler=lookahead \
  "--dispatch=${workdir}/train.dispatch" \
  "--dispatch-out=${workdir}/replay.dispatch" \
  "--out=${workdir}/replay_trace.json" > /dev/null
grep -q "^peppher-dispatch v1" "${workdir}/replay.dispatch"

echo "== static predictor: record models from short ODE runs"
modelsdir="${workdir}/models"
mkdir -p "${modelsdir}"
for n in 64 96 128 160; do
  for arch in cpu cuda; do
    "${perf_bin}" --record=ode --machine=c2050 "--force=${arch}" "--n=${n}" \
      --steps=6 "--models-out=${modelsdir}" \
      "--out=${workdir}/predict_trace.json" > /dev/null
  done
done

predictdir="${workdir}/predict"
mkdir -p "${predictdir}"
cat > "${predictdir}/ode_rhs.xml" <<'EOF'
<peppher-interface name="ode_rhs">
  <function returnType="void">
    <param name="J" type="const float*" accessMode="read" size="n*n"/>
    <param name="y" type="const float*" accessMode="read" size="n"/>
    <param name="k1" type="float*" accessMode="write" size="n"/>
    <param name="n" type="int" accessMode="read"/>
  </function>
</peppher-interface>
EOF
cat > "${predictdir}/ode_combine.xml" <<'EOF'
<peppher-interface name="ode_combine">
  <function returnType="void">
    <param name="y" type="float*" accessMode="readwrite" size="n"/>
    <param name="k1" type="const float*" accessMode="read" size="n"/>
    <param name="k2" type="const float*" accessMode="read" size="n"/>
    <param name="k3" type="const float*" accessMode="read" size="n"/>
    <param name="k4" type="const float*" accessMode="read" size="n"/>
    <param name="n" type="int" accessMode="read"/>
  </function>
</peppher-interface>
EOF
for iface in ode_rhs ode_combine; do
  for arch in cpu cuda; do
    cat > "${predictdir}/${iface}_${arch}.xml" <<EOF
<peppher-implementation name="${iface}_${arch}" interface="${iface}">
  <platform language="${arch}"/>
</peppher-implementation>
EOF
  done
done
cat > "${predictdir}/main.xml" <<'EOF'
<peppher-main name="predict_smoke" source="main.cpp">
  <calls>
    <call interface="ode_rhs">
      <arg param="J" data="J"/>
      <arg param="y" data="y"/>
      <arg param="k1" data="k1"/>
    </call>
    <call interface="ode_combine">
      <arg param="y" data="y"/>
      <arg param="k1" data="k1"/>
      <arg param="k2" data="k2"/>
      <arg param="k3" data="k3"/>
      <arg param="k4" data="k4"/>
    </call>
  </calls>
</peppher-main>
EOF
# Sizes of the n=96 recording: vectors 96*4 bytes, Jacobian 96*96*4 bytes.
predict_sizes=(--size=J=36864 --size=y=384 --size=k1=384
               --size=k2=384 --size=k3=384 --size=k4=384)

echo "== recorded models must predict the fixture clean under --werror"
"${predict_bin}" analyze --werror --machine=c2050 "--models=${modelsdir}" \
  "${predict_sizes[@]}" "${predictdir}" > "${workdir}/predict_report.txt"
grep -q "predicted makespan" "${workdir}/predict_report.txt"

echo "== what-if query must answer with a device count"
"${predict_bin}" whatif --machine=c2050 "--models=${modelsdir}" \
  --target=0.001 "${predict_sizes[@]}" "${predictdir}" \
  | grep -q "device(s)"

echo "== seeded dead variant must be caught as PL070"
cat > "${predictdir}/ode_rhs_opencl.xml" <<'EOF'
<peppher-implementation name="ode_rhs_opencl" interface="ode_rhs">
  <platform language="opencl"/>
</peppher-implementation>
EOF
if "${predict_bin}" analyze --werror --machine=c2050 \
    "--models=${modelsdir}" "${predict_sizes[@]}" "${predictdir}" \
    > "${workdir}/predict_findings.txt"; then
  echo "run_lint.sh: predictor accepted a dead variant under --werror" >&2
  cat "${workdir}/predict_findings.txt" >&2
  exit 1
fi
grep -q "PL070" "${workdir}/predict_findings.txt"
rm -f "${predictdir}/ode_rhs_opencl.xml"

echo "== predict's exported dispatch table must lint clean in its fixture"
table="${predictdir}/predict.dispatch"
"${predict_bin}" analyze --machine=c2050 "--models=${modelsdir}" \
  "${predict_sizes[@]}" "--dispatch-out=${table}" "${predictdir}" > /dev/null
grep -q "^peppher-dispatch v1" "${table}"
"${lint_bin}" --werror --no-sources "${predictdir}"

echo "== a stale dispatch entry must be caught as PL024"
echo "ode_rhs 0 -1 opencl 1" >> "${table}"
if "${lint_bin}" --werror --no-sources "${predictdir}" \
    > "${workdir}/dispatch_findings.txt"; then
  echo "run_lint.sh: lint accepted a stale dispatch entry" >&2
  exit 1
fi
grep -q "PL024" "${workdir}/dispatch_findings.txt"

echo "== a malformed dispatch line must be caught as PL000 at its line"
echo "ode_rhs 0 -1 cpu 1 extra" >> "${table}"
bad_line="$(wc -l < "${table}")"
if "${lint_bin}" --werror --no-sources "${predictdir}" \
    > "${workdir}/dispatch_findings.txt"; then
  echo "run_lint.sh: lint accepted a malformed dispatch line" >&2
  exit 1
fi
grep -q "PL000" "${workdir}/dispatch_findings.txt"
grep -q "line ${bad_line}, column 1" "${workdir}/dispatch_findings.txt"
rm -f "${table}"

echo "== corrupted .model file must be rejected with a located parse error"
badmodels="${workdir}/bad_models"
mkdir -p "${badmodels}"
cp "${modelsdir}"/*.model "${badmodels}/" 2> /dev/null || true
first_model="$(ls "${badmodels}"/*.model | head -n 1)"
echo "1 2 garbage" >> "${first_model}"
if "${predict_bin}" analyze --machine=c2050 "--models=${badmodels}" \
    "${predictdir}" > "${workdir}/predict_parse.txt" 2>&1; then
  echo "run_lint.sh: predictor accepted a corrupted .model file" >&2
  exit 1
fi
grep -Eq "line [0-9]+" "${workdir}/predict_parse.txt"

echo "== --explain must know the PL07x codes, and --explain=all must list them"
"${predict_bin}" --explain=PL074 | grep -q "PL074"
"${lint_bin}" --explain=all > "${workdir}/explain_all.txt"
grep -q "PL070" "${workdir}/explain_all.txt"
grep -q "PF001" "${workdir}/explain_all.txt"

if command -v clang-tidy > /dev/null; then
  compile_db=""
  for candidate in "${repo_root}/build" "${repo_root}"/build-*; do
    if [[ -f "${candidate}/compile_commands.json" ]]; then
      compile_db="${candidate}"
      break
    fi
  done
  if [[ -n "${compile_db}" ]]; then
    echo "== clang-tidy over src/analyze (advisory)"
    clang-tidy -p "${compile_db}" "${repo_root}"/src/analyze/*.cpp \
      || echo "run_lint.sh: clang-tidy reported findings (advisory only)"
  else
    echo "== clang-tidy found but no compile_commands.json; skipping"
  fi
else
  echo "== clang-tidy not installed; skipping"
fi

echo "== lint smoke run passed"
