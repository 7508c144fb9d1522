"""HLS-C front-end: lexer, parser, AST and pragma handling.

This package replaces the Clang/LLVM front-end used by the paper with a
self-contained parser for a restricted C dialect ("HLS-C") that covers the
loop-nest kernels found in Polybench / MachSuite / CHStone-style benchmarks.
"""

from repro.frontend.ast_nodes import (
    ArrayRef,
    Assignment,
    BinaryOp,
    Block,
    CallExpr,
    Declaration,
    Expr,
    FloatLiteral,
    ForLoop,
    FunctionDef,
    IfStmt,
    IntLiteral,
    Param,
    ReturnStmt,
    Stmt,
    TernaryOp,
    TranslationUnit,
    UnaryOp,
    VarRef,
)
from repro.frontend.errors import FrontendError, LexerError, ParserError, PragmaError
from repro.frontend.lexer import Lexer, Token, TokenKind, tokenize
from repro.frontend.parser import Parser, parse_function, parse_source
from repro.frontend.pragmas import (
    ArrayDirective,
    LoopDirective,
    PartitionType,
    Pragma,
    PragmaConfig,
    PragmaKind,
    config_from_pragmas,
    config_from_specs,
    parse_pragma,
)

__all__ = [
    "ArrayRef", "Assignment", "BinaryOp", "Block", "CallExpr", "Declaration",
    "Expr", "FloatLiteral", "ForLoop", "FunctionDef", "IfStmt", "IntLiteral",
    "Param", "ReturnStmt", "Stmt", "TernaryOp", "TranslationUnit", "UnaryOp",
    "VarRef",
    "FrontendError", "LexerError", "ParserError", "PragmaError",
    "Lexer", "Token", "TokenKind", "tokenize",
    "Parser", "parse_function", "parse_source",
    "ArrayDirective", "LoopDirective", "PartitionType", "Pragma",
    "PragmaConfig", "PragmaKind", "config_from_pragmas", "config_from_specs",
    "parse_pragma",
]
