"""Parser: PTX text to :class:`repro.ptx.ast.Module`.

The grammar covers the subset emitted by ``nvcc``/this toolchain that
Guardian's patcher needs: module directives, ``.global`` declarations,
``.entry``/``.func`` definitions with ``.param`` lists, register/shared
declarations, labels, predicated instructions, both load/store
addressing modes, and ``brx.idx`` target lists.

The parser and :mod:`repro.ptx.emitter` round-trip: parsing emitted text
yields an equal AST. This matters because Guardian extracts PTX with
``cuobjdump`` (text), patches it, and hands text back to the driver JIT.
"""

from __future__ import annotations

import re
import struct
from typing import Union

from repro.errors import PTXParseError
from repro.ptx import isa
from repro.ptx.ast import (
    GlobalDecl,
    Guard,
    Immediate,
    Instruction,
    Kernel,
    Label,
    MemRef,
    Module,
    Operand,
    Param,
    RegDecl,
    Register,
    SharedDecl,
    SpecialReg,
    Symbol,
    TargetList,
)

_LINE_COMMENT = re.compile(r"//[^\n]*")
_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
_LABEL = re.compile(r"\s*([$%\w.]+)\s*:\s*")
_HEX_INT = re.compile(r"^[+-]?0[xX][0-9a-fA-F]+$")
_DEC_INT = re.compile(r"^[+-]?\d+$")
_DEC_FLOAT = re.compile(
    r"^[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)$"
)
_HEX_F32 = re.compile(r"^0[fF]([0-9a-fA-F]{8})$")
_HEX_F64 = re.compile(r"^0[dD]([0-9a-fA-F]{16})$")
# Operand tokens must be well-formed identifiers.  Anything else (e.g. a
# bit-flipped byte turning "%rd3" into "(rd3") must fail here with a
# PTXParseError rather than surviving as a Symbol and crashing codegen or
# the JIT later — fault injection relies on parse-time rejection.
_REGISTER_TOKEN = re.compile(r"^%[A-Za-z_$][\w$]*$")
_SYMBOL_TOKEN = re.compile(r"^[A-Za-z_$.][\w$.]*$")
_BRACE = re.compile(r"[{}]")
_BRACE_OR_SEMICOLON = re.compile(r"[{};]")
_GLOBAL_DECL = re.compile(
    r"(?:\.visible\s+)?\.global\s+(?:\.align\s+(\d+)\s+)?"
    r"\.(\w+)\s+([\w$]+)\s*(?:\[(\d+)\])?$"
)
_PARAM_DECL = re.compile(
    r"\.param\s+(?:\.align\s+\d+\s+)?\.(\w+)\s+([\w$]+)"
)
_REG_DECL = re.compile(r"\.reg\s+\.(\w+)\s+([%\w$]+)<(\d+)>$")
_SHARED_DECL = re.compile(
    r"\.shared\s+(?:\.align\s+(\d+)\s+)?\.(\w+)\s+([\w$]+)\[(\d+)\]$"
)
_GUARD = re.compile(r"@(!?)([%\w]+)\s+(.*)$", re.DOTALL)
_INSTRUCTION = re.compile(r"([\w.]+)\s*(.*)$", re.DOTALL)
_MEMREF = re.compile(r"([%\w$.]+)\s*(?:([+-])\s*(\d+))?$")


def _strip_comments(text: str) -> str:
    text = _BLOCK_COMMENT.sub(" ", text)
    return _LINE_COMMENT.sub("", text)


def parse_module(text: str) -> Module:
    """Parse PTX source text into a :class:`Module`.

    Raises:
        PTXParseError: on any syntax the subset does not accept.
    """
    return _ModuleParser(_strip_comments(text)).parse()


class _ModuleParser:
    """Single-pass, brace-tracking parser over comment-stripped text."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0

    # -- helpers ----------------------------------------------------------

    def _error(self, message: str) -> PTXParseError:
        line = self._text.count("\n", 0, self._pos) + 1
        return PTXParseError(message, line=line)

    def _skip_ws(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos].isspace():
            self._pos += 1

    def _at_end(self) -> bool:
        self._skip_ws()
        return self._pos >= len(self._text)

    def _read_until(self, stop: str) -> str:
        """Consume and return text up to (excluding) ``stop``."""
        end = self._text.find(stop, self._pos)
        if end < 0:
            raise self._error(f"expected {stop!r}")
        chunk = self._text[self._pos : end]
        self._pos = end + len(stop)
        return chunk

    def _read_balanced_braces(self) -> str:
        """Consume a ``{...}`` block (handles nested braces) and return
        its inner text."""
        self._skip_ws()
        if self._pos >= len(self._text) or self._text[self._pos] != "{":
            raise self._error("expected '{'")
        depth = 0
        start = self._pos + 1
        for brace in _BRACE.finditer(self._text, self._pos):
            if brace.group() == "{":
                depth += 1
            else:
                depth -= 1
                if depth == 0:
                    index = brace.start()
                    self._pos = index + 1
                    return self._text[start:index]
        raise self._error("unbalanced '{'")

    # -- top level ---------------------------------------------------------

    def parse(self) -> Module:
        module = Module()
        while not self._at_end():
            # Module directives are newline-terminated; .global ends with
            # ';'; a kernel header runs up to its parameter list's '('.
            statement = self._read_until_any((";", "(", "\n")).strip()
            if self._last_stop == "(":
                self._parse_kernel(module, header=statement)
                continue
            if not statement:
                continue
            self._parse_directive(module, statement)
        return module

    def _read_until_any(self, stops: tuple[str, ...]) -> str:
        best = len(self._text)
        best_stop = None
        for stop in stops:
            where = self._text.find(stop, self._pos)
            if 0 <= where < best:
                best = where
                best_stop = stop
        if best_stop is None:
            # Trailing junk without a terminator — treat as one chunk.
            chunk = self._text[self._pos :]
            self._pos = len(self._text)
            self._last_stop = ""
            return chunk
        chunk = self._text[self._pos : best]
        self._pos = best + 1
        self._last_stop = best_stop
        return chunk

    def _parse_directive(self, module: Module, statement: str) -> None:
        tokens = statement.split()
        head = tokens[0]
        if head == ".version":
            module.version = tokens[1]
        elif head == ".target":
            module.target = tokens[1]
        elif head == ".address_size":
            module.address_size = int(tokens[1])
        elif head == ".global" or statement.startswith(".visible .global"):
            module.globals.append(_parse_global(statement))
        else:
            raise self._error(f"unexpected top-level statement {statement!r}")

    # -- kernels ------------------------------------------------------------

    def _parse_kernel(self, module: Module, header: str) -> None:
        tokens = header.split()
        visible = ".visible" in tokens
        if ".entry" in tokens:
            is_entry = True
            name = tokens[tokens.index(".entry") + 1]
        elif ".func" in tokens:
            is_entry = False
            name = tokens[tokens.index(".func") + 1]
        else:
            raise self._error(f"expected .entry or .func in {header!r}")

        params_text = self._read_until(")")
        params = _parse_params(params_text)
        body_text = self._read_balanced_braces()
        kernel = Kernel(
            name=name,
            params=params,
            body=_parse_body(body_text),
            is_entry=is_entry,
            visible=visible,
        )
        module.add(kernel)


def _parse_global(statement: str) -> GlobalDecl:
    match = _GLOBAL_DECL.match(statement.strip())
    if not match:
        raise PTXParseError(f"bad .global declaration: {statement!r}")
    align, elem_type, name, count = match.groups()
    return GlobalDecl(
        name=name,
        elem_type=elem_type,
        num_elems=int(count) if count else 1,
        align=int(align) if align else isa.type_width(elem_type),
    )


def _parse_params(text: str) -> list[Param]:
    params: list[Param] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        match = _PARAM_DECL.match(chunk)
        if not match:
            raise PTXParseError(f"bad parameter declaration: {chunk!r}")
        params.append(Param(name=match.group(2), param_type=match.group(1)))
    return params


# --------------------------------------------------------------------------
# Kernel bodies
# --------------------------------------------------------------------------


def _parse_body(text: str) -> list:
    statements: list = []
    pos = 0
    length = len(text)
    while pos < length:
        # Skip whitespace.
        while pos < length and text[pos].isspace():
            pos += 1
        if pos >= length:
            break
        # Labels: identifier followed by ':' (but not a directive).
        label_match = _LABEL.match(text, pos)
        if label_match and not label_match.group(1).startswith("."):
            statements.append(Label(label_match.group(1)))
            pos = label_match.end()
            continue
        # One statement up to ';', tracking braces for brx target lists.
        end = length
        depth = 0
        for mark in _BRACE_OR_SEMICOLON.finditer(text, pos):
            char = mark.group()
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
            elif depth == 0:
                end = mark.start()
                break
        if end >= length:
            raise PTXParseError(f"missing ';' after {text[pos:pos+40]!r}")
        statement_text = text[pos:end].strip()
        pos = end + 1
        if statement_text:
            statements.append(_parse_statement(statement_text))
    return statements


def _parse_statement(text: str):
    if text.startswith(".reg"):
        match = _REG_DECL.match(text)
        if not match:
            raise PTXParseError(f"bad .reg declaration: {text!r}")
        return RegDecl(
            reg_type=match.group(1),
            prefix=match.group(2),
            count=int(match.group(3)),
        )
    if text.startswith(".shared"):
        match = _SHARED_DECL.match(text)
        if not match:
            raise PTXParseError(f"bad .shared declaration: {text!r}")
        align, elem_type, name, count = match.groups()
        return SharedDecl(
            name=name,
            elem_type=elem_type,
            size_bytes=int(count) * isa.type_width(elem_type),
            align=int(align) if align else isa.type_width(elem_type),
        )
    return _parse_instruction(text)


def _parse_instruction(text: str) -> Instruction:
    guard = None
    if text.startswith("@"):
        match = _GUARD.match(text)
        if not match:
            raise PTXParseError(f"bad guard: {text!r}")
        guard = Guard(register=match.group(2), negated=bool(match.group(1)))
        text = match.group(3).strip()

    match = _INSTRUCTION.match(text)
    if not match:
        raise PTXParseError(f"bad instruction: {text!r}")
    opcode, rest = match.group(1), match.group(2).strip()
    try:
        isa.opcode_info(opcode)
    except KeyError as exc:
        raise PTXParseError(f"unknown opcode in {text!r}: {exc}") from None
    operands = tuple(
        _parse_operand(chunk) for chunk in _split_operands(rest)
    )
    return Instruction(opcode=opcode, operands=operands, guard=guard)


def _split_operands(text: str) -> list[str]:
    if not text:
        return []
    chunks: list[str] = []
    depth = 0
    start = 0
    for index, char in enumerate(text):
        if char in "[{(":
            depth += 1
        elif char in "]})":
            depth -= 1
        elif char == "," and depth == 0:
            chunks.append(text[start:index].strip())
            start = index + 1
    chunks.append(text[start:].strip())
    return [chunk for chunk in chunks if chunk]


def _parse_operand(text: str) -> Operand:
    if text.startswith("["):
        return _parse_memref(text)
    if text.startswith("{"):
        if not text.endswith("}"):
            raise PTXParseError(f"bad target list: {text!r}")
        labels = tuple(
            label.strip() for label in text[1:-1].split(",") if label.strip()
        )
        for label in labels:
            if not _SYMBOL_TOKEN.match(label):
                raise PTXParseError(f"bad target label: {label!r}")
        return TargetList(labels)
    immediate = _try_parse_immediate(text)
    if immediate is not None:
        return immediate
    if text.startswith("%"):
        if text in isa.SPECIAL_REGISTERS:
            return SpecialReg(text)
        if not _REGISTER_TOKEN.match(text):
            raise PTXParseError(f"bad register operand: {text!r}")
        return Register(text)
    if not _SYMBOL_TOKEN.match(text):
        raise PTXParseError(f"bad operand: {text!r}")
    return Symbol(text)


def _parse_memref(text: str) -> MemRef:
    inner = text[1:-1].strip()
    match = _MEMREF.match(inner)
    if not match:
        raise PTXParseError(f"bad memory operand: {text!r}")
    base_text, sign, offset_text = match.groups()
    offset = int(offset_text) if offset_text else 0
    if sign == "-":
        offset = -offset
    base: Union[Register, Symbol]
    if base_text.startswith("%"):
        if not _REGISTER_TOKEN.match(base_text):
            raise PTXParseError(f"bad memory base register: {base_text!r}")
        base = Register(base_text)
    else:
        if not _SYMBOL_TOKEN.match(base_text):
            raise PTXParseError(f"bad memory base symbol: {base_text!r}")
        base = Symbol(base_text)
    return MemRef(base=base, offset=offset)


def _try_parse_immediate(text: str) -> Union[Immediate, None]:
    if _HEX_INT.match(text):
        return Immediate(int(text, 16))
    if _DEC_INT.match(text):
        return Immediate(int(text))
    match = _HEX_F32.match(text)
    if match:
        return Immediate(struct.unpack(">f", bytes.fromhex(match.group(1)))[0])
    match = _HEX_F64.match(text)
    if match:
        return Immediate(struct.unpack(">d", bytes.fromhex(match.group(1)))[0])
    if _DEC_FLOAT.match(text):
        return Immediate(float(text))
    return None
