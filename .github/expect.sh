# The one check behind the CLI-as-a-process CI steps. Source it from the
# repository root with RUNNER_TEMP set to a writable directory:
#
#   expect CODE [--within S] ARGS...
#       runs `python -m sumbox.cli ARGS...` with PYTHONPATH=src and fails
#       the step unless it exits CODE with no Traceback on stderr (and, with
#       --within, inside S seconds). Its stdout stays in $RUNNER_TEMP/cli.out.
#   printed LINE
#       fails the step unless the last expect printed LINE as a whole line.
#   records
#       fails the step unless the last expect printed at least one line and
#       every line is a JSON object whose first key is "instance".

expect() {
  want="$1"
  shift
  limit=()
  if [ "$1" = "--within" ]; then
    limit=(timeout "$2")
    shift 2
  fi
  code=0
  "${limit[@]}" env PYTHONPATH=src python -m sumbox.cli "$@" \
    > "$RUNNER_TEMP/cli.out" 2> "$RUNNER_TEMP/cli.err" || code=$?
  if [ "$code" -ne "$want" ] || grep -q Traceback "$RUNNER_TEMP/cli.err"; then
    cat "$RUNNER_TEMP/cli.err"
    echo "sumbox $* exited $code (want $want${limit[1]:+ within ${limit[1]} s}, no traceback)"
    exit 1
  fi
}

printed() {
  if ! grep -qx "$1" "$RUNNER_TEMP/cli.out"; then
    cat "$RUNNER_TEMP/cli.out"
    echo "want the line '$1'"
    exit 1
  fi
}

records() {
  if ! python -c '
import json, sys

def record(line):
    try:
        rec = json.loads(line)
    except ValueError:
        return False
    return isinstance(rec, dict) and next(iter(rec), None) == "instance"

lines = sys.stdin.read().splitlines()
sys.exit(0 if lines and all(map(record, lines)) else 1)' < "$RUNNER_TEMP/cli.out"; then
    cat "$RUNNER_TEMP/cli.out"
    echo "want every line a JSON object whose first key is instance"
    exit 1
  fi
}
