"""Attribute-policied message dissemination over a permissioned ledger.

One signcrypted broadcast reaches exactly the devices whose attribute
keys satisfy the sender's access policy; a slot-based validator chain
carries the payloads and pins their digests.
"""

from .absc import (
    AttributeKey,
    MessageCiphertext,
    PublicParams,
    SignedCiphertext,
    SigningKey,
    VerificationKey,
    designcrypt,
    keygen,
    setup,
    signcrypt,
    signing_keygen,
)
from .groups import CurveProfile, DecodeError, GroupContext
from .ledger import Block, Record, ValidatorSet, genesis, verify_chain
from .nodes import DeviceNode, EdgeNode, TrustedAuthority, ValidatorNode
from .policy import AccessTree, parse_policy, policy_to_text, satisfies

__version__ = "1.0.0"

__all__ = [
    "AccessTree",
    "AttributeKey",
    "Block",
    "CurveProfile",
    "DecodeError",
    "DeviceNode",
    "EdgeNode",
    "GroupContext",
    "MessageCiphertext",
    "PublicParams",
    "Record",
    "SignedCiphertext",
    "SigningKey",
    "TrustedAuthority",
    "ValidatorNode",
    "ValidatorSet",
    "VerificationKey",
    "designcrypt",
    "genesis",
    "keygen",
    "parse_policy",
    "policy_to_text",
    "satisfies",
    "setup",
    "signcrypt",
    "signing_keygen",
    "verify_chain",
]
