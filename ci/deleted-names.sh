#!/bin/sh
# Fails if a deleted file or name listed in ci/deleted-names.txt is
# back, printing every hit. Run it from the repository root:
#
#   ci/deleted-names.sh
set -u
list=ci/deleted-names.txt
status=0
while read -r kind name where; do
  case "$kind" in
    '' | '#'*) continue ;;
    path)
      if [ -e "$name" ]; then
        echo "$name is back"
        status=1
      fi
      ;;
    word)
      if [ -z "$where" ]; then
        echo "$list: no places to search for $name"
        exit 2
      fi
      # $where is a list of paths: split it on purpose.
      # shellcheck disable=SC2086
      grep -rnw -e "$name" $where < /dev/null
      case $? in
        0) echo "deleted name $name is back (listed above)"; status=1 ;;
        1) ;;
        *) echo "$list: grep failed for $name in $where"; exit 2 ;;
      esac
      ;;
    *)
      echo "$list: unknown entry kind '$kind'"
      exit 2
      ;;
  esac
done < "$list"
exit "$status"
