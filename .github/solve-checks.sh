#!/usr/bin/env bash
# Solve checks shared by the CI jobs: the QZ routine, the eigensolver that
# runs for a well-conditioned and for a singular B at order 60, a projected
# pencil and a projected quadratic solve, the same projected pencil output
# under two solver seeds, and the same output bytes (solves, a 10^4-sample
# sensitivity distribution and a Monte Carlo run) and output fingerprint
# (fingerprint.py) from two processes under different hash seeds, printed
# beside the BLAS builds and numpy's CPU dispatch that its large digest
# depends on.  Every run uses one BLAS thread, as the digests recorded
# for a change are taken, since the large digest depends on the thread
# count too.  Needs the sqeig package installed, with its console script on
# PATH, and writes its files to $RUNNER_TEMP.
#
#   RUNNER_TEMP=$(mktemp -d) bash .github/solve-checks.sh
#
# One check per line: bash -e does not stop on a failed test inside an && list.
set -euo pipefail
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

echo "== QZ routine and a projected pencil solve at order 60"
python -c "from sqeig.densela import qz_routine; print('order 22:', qz_routine(22), '/ order 60:', qz_routine(60))"
sqeig synth-pencil --size 60 --rank 30 --seed 1 --output "$RUNNER_TEMP/large.json"
sqeig solve --input "$RUNNER_TEMP/large.json" --json > "$RUNNER_TEMP/large-out.json"
# the projected solve accepts exactly the pencil's 30 finite eigenvalues
python -c "import json, sys; n = sum(r['accepted'] for r in json.load(open(sys.argv[1]))); print('accepted:', n); sys.exit(n != 30)" "$RUNNER_TEMP/large-out.json"
# its core (the common kernels deflated) is the regular part, of size 30,
# so the projection draws nothing and the output does not depend on the seed
sqeig solve --input "$RUNNER_TEMP/large.json" --seed 1 --json > "$RUNNER_TEMP/large-seed1.json"
sqeig solve --input "$RUNNER_TEMP/large.json" --seed 2 --json > "$RUNNER_TEMP/large-seed2.json"
cmp "$RUNNER_TEMP/large-seed1.json" "$RUNNER_TEMP/large-seed2.json"

echo "== Eigensolver at order 60: zgeev for a well-conditioned B, QZ for a singular one"
# fails unless the singular B (synth_pencil's own pair, rank 30) ran QZ
python -c "import sys; import numpy as np; from sqeig.corpus import synth_pencil; from sqeig.densela import generalized_eig, qz_routine; from sqeig.linearize import first_companion; z = np.random.default_rng(0).standard_normal((2, 60, 60)); well = generalized_eig(z[0], np.eye(60) + 0.1 * z[1]).routine; p, _ = synth_pencil(60, 30, seed=1); singular = generalized_eig(*first_companion(p)).routine; print('well-conditioned B:', well, '/ singular B:', singular); sys.exit(singular != qz_routine(60))"

echo "== A projected quadratic: chain quadratic n = 40, normal rank 20, solved at order 2r = 40"
python -c "import sys; import numpy as np; from sqeig import probfile; from sqeig.construct import chain_quadratic; inst = chain_quadratic([0.4 * k * np.exp(0.7j * k) for k in range(1, 21)], 40, rng=0); probfile.dump(probfile.ProblemFile(inst.polynomial().coeffs, truth=inst.eigenvalues, name='chain-quadratic-40-20'), sys.argv[1])" "$RUNNER_TEMP/chain.json"
sqeig solve --input "$RUNNER_TEMP/chain.json" --json > "$RUNNER_TEMP/chain-out.json"
# the projected solve accepts exactly the quadratic's 20 eigenvalues
python -c "import json, sys; n = sum(r['accepted'] for r in json.load(open(sys.argv[1]))); print('accepted:', n); sys.exit(n != 20)" "$RUNNER_TEMP/chain-out.json"

echo "== Same bytes and fingerprint from two processes under different hash seeds"
for seed in 1 2; do
  PYTHONHASHSEED=$seed sqeig solve --builtin ex8 --seed 3 --json > "$RUNNER_TEMP/ex8-$seed.json"
  PYTHONHASHSEED=$seed sqeig solve --input "$RUNNER_TEMP/large.json" --json > "$RUNNER_TEMP/large-$seed.json"
  PYTHONHASHSEED=$seed sqeig solve --input "$RUNNER_TEMP/chain.json" --json > "$RUNNER_TEMP/chain-$seed.json"
  PYTHONHASHSEED=$seed python "$(dirname "$0")/fingerprint.py" > "$RUNNER_TEMP/fingerprint-$seed.txt"
  # the batched sampler end to end at the size its callers use: 10^4
  # screened sensitivity samples in one batch, and 50 Monte Carlo trials
  PYTHONHASHSEED=$seed sqeig dist --n 5 --m 2 --r 3 --samples 10000 --seed 0 > "$RUNNER_TEMP/dist-$seed.csv"
  PYTHONHASHSEED=$seed sqeig montecarlo --builtin ex8 --runs 50 --seed 3 > "$RUNNER_TEMP/montecarlo-$seed.json"
done
cmp "$RUNNER_TEMP/ex8-1.json" "$RUNNER_TEMP/ex8-2.json"
cmp "$RUNNER_TEMP/large-1.json" "$RUNNER_TEMP/large-2.json"
cmp "$RUNNER_TEMP/chain-1.json" "$RUNNER_TEMP/chain-2.json"
cmp "$RUNNER_TEMP/dist-1.csv" "$RUNNER_TEMP/dist-2.csv"
cmp "$RUNNER_TEMP/montecarlo-1.json" "$RUNNER_TEMP/montecarlo-2.json"
# the large digest's bits depend on the host's BLAS kernels and thread count
# (see fingerprint.py), so the digests are printed next to them
python -c "
import os, numpy, scipy
for module in (numpy, scipy):
    try:
        config = module.show_config(mode='dicts')
    except TypeError:  # numpy < 1.26 and scipy < 1.11 print their configuration only
        module.show_config()
        continue
    blas = config['Build Dependencies']['blas']
    print(module.__name__, module.__version__, 'BLAS:', blas.get('name'), blas.get('version'), blas.get('openblas configuration', ''))
    if module is numpy:
        print('numpy CPU dispatch:', config['SIMD Extensions'])
print('BLAS threads:', os.environ.get('OPENBLAS_NUM_THREADS', 'unset'), '/ cpus:', os.cpu_count())
"
cat "$RUNNER_TEMP/fingerprint-1.txt"
cmp "$RUNNER_TEMP/fingerprint-1.txt" "$RUNNER_TEMP/fingerprint-2.txt"
echo "solve checks passed"
