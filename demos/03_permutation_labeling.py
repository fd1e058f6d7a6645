"""Permutation prompting and the total, idempotent response repair.

The teacher is asked for an ordering like "[2] > [1] > [3]". Real replies are
often messy; parse_permutation always returns a valid permutation and flags
whether it had to repair anything.

Run:  python3 demos/03_permutation_labeling.py
"""

from distilrank import Qrels, Query, QueryKind, build_prompt, mock_llm, parse_permutation
from distilrank.distill import format_order, order_from_ranks

passages = [
    "Tomatoes are botanically berries but culinarily vegetables.",
    "The stock market closed higher on Tuesday.",
    "Berries are small, pulpy fruits without a stone.",
]
messages = build_prompt("which fruit is a berry", passages)
print("--- system ---")
print(messages[0]["content"])
print("--- user ---")
print(messages[1]["content"])

print("\nrepair behavior on messy replies (m=3):")
for reply in [
    "[3] > [1] > [2]",
    "[3] > [3] > [1]",
    "The most relevant is [1], clearly.",
    "I cannot rank these.",
]:
    ranks, repaired = parse_permutation(reply, 3)
    order = order_from_ranks(ranks)
    print(f"  {reply!r:40} -> {format_order(order)}  repaired={repaired}")

# an oracle teacher backed by relevance judgments, used for offline runs
qrels = Qrels({"q1": {"p1": 3, "p2": 0, "p3": 2}})
teacher = mock_llm(qrels)
query = Query("q1", "which fruit is a berry", QueryKind.GENERATED)
reply = teacher(query, [("p1", passages[0]), ("p2", passages[1]), ("p3", passages[2])])
print(f"\nmock teacher reply: {reply}")
